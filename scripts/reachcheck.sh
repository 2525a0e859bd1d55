#!/bin/sh
# reachcheck: a path stays only if a shipped binary or the public API
# reaches it. Builds every cmd/*, examples/* and bench binary with inlining
# off (so every linked function keeps its text symbol), lists those symbols
# with go tool nm, and fails on any non-test func declared under internal/
# that none of them links, unless it is
#   - an exported method of an internal type the root package aliases
#     (`Name = pkg.Type`), which makes it part of the library's surface, or
#   - listed in the allowlist scripts/reach.allow, one
#     `pkg.[Type.]Func reason` a line, reason facade, oracle or waits:<item>.
# An allowlist entry that is linked or no longer declared fails too, so the
# list cannot go stale. It also fails when any of those binaries links
# encoding/gob: the checkpoint image is read and written by internal/core
# alone. Run from the repository root: sh scripts/reachcheck.sh
set -eu
if { go list -deps ./cmd/... ./examples/...; go -C bench list -deps .; } | grep -qx encoding/gob; then
	echo "reachcheck: a shipped binary links encoding/gob"; exit 1
fi
allow=scripts/reach.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/bin"
go build -gcflags=all=-l -o "$tmp/bin/" ./cmd/... ./examples/...
go -C bench build -gcflags=all=-l -o "$tmp/bin/bench" .

# Linked keys: the symbol is the whole text after the type column. Generic
# shapes nest brackets and may hold spaces and quotes, so strip [...] by
# depth; (*T) becomes T; -fm marks a method value. A closure (F.func1)
# keeps F's key, harmlessly.
for b in "$tmp"/bin/*; do go tool nm "$b"; done | awk '
	sub(/^ *[0-9a-f]+ [Tt] megh\/internal\//, "") {
		s = ""; d = 0
		for (i = 1; i <= length($0); i++) {
			c = substr($0, i, 1)
			if (c == "[") d++; else if (c == "]") d--; else if (d == 0) s = s c
		}
		gsub(/[(*)]/, "", s); sub(/-fm$/, "", s)
		n = split(s, p, "."); print p[1] "." p[2]; if (n > 2) print p[1] "." p[2] "." p[3]
	}' | sort -u >"$tmp/linked"

# Aliased types: every `pkg.Type` on the right of `=` in the root package.
go list -f '{{range .GoFiles}}{{$.Dir}}/{{.}} {{end}}' . | xargs sed -n \
	's/^\(type \)\{0,1\}[[:space:]]*[A-Z][A-Za-z0-9_]* *= *\([a-z][a-z0-9]*\.[A-Z][A-Za-z0-9_]*\)$/\2/p' |
	sort -u >"$tmp/aliased"

# Declared funcs: `key lines file:line`, key as in the linked list.
go list -f '{{range .GoFiles}}{{$.ImportPath}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}' ./internal/... |
	while read -r pkg file; do
		awk -v pkg="${pkg#megh/internal/}" -v file="${file#"$PWD"/}" '
		/^func / {
			s = substr($0, 6); recv = ""
			if (s ~ /^\(/) {
				r = substr(s, 2, index(s, ")") - 2); sub(/\[.*/, "", r)
				recv = r; sub(/.* /, "", recv); sub(/^\*/, "", recv); recv = recv "."
				s = substr(s, index(s, ")") + 2)
			}
			name = s; sub(/[[(].*/, "", name)
			key = pkg "." recv name; start = FNR; open = $0 !~ /}$/
			if (!open) print key, 1, file ":" start
			next
		}
		open && /^}/ { print key, FNR - start + 1, file ":" start; open = 0 }' "$file"
	done | grep -v -E '^[^ .]+\.(init|_) ' >"$tmp/declared" || true

awk -v allowfile="$allow" '
	FILENAME == ARGV[1] { linked[$1] = 1; next }
	FILENAME == ARGV[2] { aliased[$1] = 1; next }
	FILENAME == ARGV[3] {
		entries++
		if (NF != 2 || $2 !~ /^(facade|oracle|waits:[0-9a-z()]+)$/) { print allowfile ":" FNR ": want \"pkg.[Type.]Func facade|oracle|waits:<item>\""; bad = 1 }
		allowed[$1] = FNR; next
	}
	{
		declared[$1] = 1; n = split($1, p, "."); funcs++
		if ($1 in linked || $1 in allowed) next
		if (n == 3 && (p[1] "." p[2]) in aliased && p[3] ~ /^[A-Z]/) next
		print "reachcheck: " $3 ": " $1 " (" $2 " lines) is linked by no binary and reached by no public API"; bad = 1
	}
	END {
		if (entries > 50) { print allowfile ": " entries " entries, at most 50"; bad = 1 }
		for (k in allowed) if (k in linked || !(k in declared)) { print allowfile ":" allowed[k] ": " k " is linked or not declared; drop it"; bad = 1 }
		if (!bad) print "reachcheck: " funcs " functions under internal/, each linked, public or allowlisted (" entries " allowlisted)"
		exit bad
	}' "$tmp/linked" "$tmp/aliased" "$allow" "$tmp/declared"
