package obs

import (
	"bufio"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name and instances
// by label signature, so output is deterministic and diffable. It is
// WriteSnapshots over Gather, so a counter travels as a snapshot's float64,
// which holds it exactly below 2⁵³.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if err := WriteSnapshots(bw, r.Gather()); err != nil {
		return err
	}
	return bw.Flush()
}

// withLabel splices one extra label pair into an existing signature
// ("{a=\"b\"}" or "").
func withLabel(sig, key, value string) string {
	extra := key + `="` + escapeLabelValue(value) + `"`
	if sig == "" {
		return "{" + extra + "}"
	}
	return strings.TrimSuffix(sig, "}") + "," + extra + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp applies the text-format escaping rules for HELP lines.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler serves the registry as text/plain for a Prometheus scraper.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
