package server

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"megh/internal/core"
	"megh/internal/health"
	"megh/internal/obs"
	"megh/internal/trace"
)

// numShards splits the session map so creates/lookups for different
// tenants never contend on one mutex. 32 is far beyond the core counts
// this service runs on; the per-shard RWMutex is only held for map
// operations, never across learner work.
const numShards = 32

// DefaultSessionID is the reserved session the service Config sizes. It is
// pinned (never evicted) and cannot be created or deleted through /v2.
const DefaultSessionID = "default"

// Sentinel errors the HTTP layer maps onto status codes.
var (
	errSessionNotFound  = errors.New("session not found")
	errSessionExists    = errors.New("session exists with a different spec")
	errSessionReserved  = errors.New("session id is reserved")
	errSessionDeleted   = errors.New("session was deleted")
	errInvalidSessionID = errors.New("invalid session id")
	errBadSpec          = errors.New("invalid session spec")
	errCheckpointWorld  = errors.New("checkpoint holds another world")
)

// session is one tenant: an independent data center with its own learner
// (its own MDP instance), tracer ring, metrics registry, and lock.
// Decides for different sessions touch different mutexes, so tenants
// never serialise on each other.
type session struct {
	id   string
	spec SessionSpec

	// lastTouch is the manager's logical clock value at the last learner
	// access; the LRU eviction scan reads it without taking mu.
	lastTouch atomic.Int64

	// base is the snapshot base the last accepted full snapshot established
	// (nil before the first one); see base.go. Requests load it before
	// taking mu and replace it whole, never mutate it.
	base atomic.Pointer[snapshotBase]

	// scratch is the request storage the next decide may reuse (see
	// requestScratch), nil while a request holds it or none has left one.
	// One slot, not a pool: a session is one monitoring pipeline, and a
	// request that finds the slot empty allocates, as every request used to.
	// Dropped with snap by release.
	scratch atomic.Pointer[requestScratch]

	mu sync.Mutex
	// learner is nil while the session is evicted (its state lives in
	// ckptPath); the next touch restores it lazily.
	learner *core.Megh
	// snap is the one snapshot every decide of this session is filled into
	// and decided from (see retainedSnapshot). It lives and dies with the
	// resident learner: nil until the first decide, dropped by release,
	// rebuilt by the first decide after a restore.
	snap *retainedSnapshot
	// health rides alongside the learner for the session's whole lifetime:
	// it detaches (keeping its accumulated telemetry) when the learner is
	// evicted and reattaches on lazy restore, so health reads on an evicted
	// session never thaw it.
	health    *health.Tracker
	tracer    *trace.Tracer
	reg       *obs.Registry
	decisions int
	lastStep  int
	evictions int
	restores  int
	deleted   bool

	// pinned sessions (the default) are never evicted.
	pinned bool
	// ckptPath is where this session checkpoints ("" = no persistence;
	// such a session can never be evicted, only deleted).
	ckptPath string
}

// takeScratch empties the session's scratch slot into the caller's hands.
func (s *session) takeScratch() *requestScratch {
	if sc := s.scratch.Swap(nil); sc != nil {
		return sc
	}
	return new(requestScratch)
}

// recycle leaves sc for the session's next request; nothing decoded into it
// may be used after. A nil sc — a request whose storage is its own — is a
// no-op.
func (s *session) recycle(sc *requestScratch) {
	if sc == nil {
		return
	}
	clear(sc.items) // drop the items' own pointers: base strings, feedback
	sc.body, sc.vms, sc.items, sc.feedbacks = sc.body[:0], sc.vms[:0], sc.items[:0], sc.feedbacks[:0]
	s.scratch.Store(sc)
}

// info snapshots the session for GET/list responses. It never restores an
// evicted learner — inspection must not churn the LRU.
func (s *session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	info := SessionInfo{
		ID:        s.id,
		Spec:      s.spec,
		Live:      s.learner != nil,
		Pinned:    s.pinned,
		Decisions: s.decisions,
		LastStep:  s.lastStep,
		Evictions: s.evictions,
		Restores:  s.restores,
	}
	if b := s.base.Load(); b != nil {
		info.SnapshotBase = b.digest
	}
	return info
}

type shard struct {
	mu sync.RWMutex
	m  map[string]*session
}

// sessionManager owns the sharded session registry, the LRU logical
// clock, and the eviction machinery.
type sessionManager struct {
	shards  [numShards]shard
	clock   atomic.Int64
	live    atomic.Int64
	maxLive int    // 0 = unlimited
	ckptDir string // "" = sessions are memory-only (eviction disabled)

	overload    float64
	stepSeconds float64

	// Cluster-mode hooks (all nil when single-node). onCheckpoint runs
	// after every successful checkpoint write, under the session lock, with
	// the path that write landed at, so exactly those bytes replicate to
	// ring peers; onDelete
	// purges a deleted session's replicas;
	// promoteReplica is the restore fallback — it lands a replicated
	// image at the primary checkpoint path and reports whether it did,
	// which is how a session fails over to a new owner.
	onCheckpoint   func(id, path string)
	onDelete       func(id string)
	promoteReplica func(id, primaryPath string) bool
	// writeFile is core.WriteFileAtomic; tests wrap it to fail part-way.
	writeFile func(path string, write func(io.Writer) (int64, error)) (int64, error)

	gLive      *obs.Gauge
	gDefined   *obs.Gauge
	cEvict     *obs.Counter
	cRestore   *obs.Counter
	hCkpt      *obs.Histogram
	gCkptBytes *obs.Gauge
	cCkptErrs  *obs.Counter
}

func newSessionManager(cfg Config, reg *obs.Registry) *sessionManager {
	m := &sessionManager{
		maxLive:     cfg.MaxSessions,
		ckptDir:     cfg.CheckpointDir,
		overload:    cfg.OverloadThreshold,
		stepSeconds: cfg.StepSeconds,
		writeFile:   core.WriteFileAtomic,
		gLive: reg.Gauge("megh_sessions_live",
			"Sessions whose learner is resident in memory.", nil),
		gDefined: reg.Gauge("megh_sessions_defined",
			"Sessions known to the service, resident or evicted.", nil),
		cEvict: reg.Counter("megh_session_evictions_total",
			"Learners checkpointed to disk and dropped from memory under the max-sessions cap.", nil),
		cRestore: reg.Counter("megh_session_restores_total",
			"Evicted learners restored lazily from their checkpoint file.", nil),
		hCkpt: reg.Histogram("megh_checkpoint_seconds",
			"Time to encode one session checkpoint and land it on disk (replication excluded).", nil),
		gCkptBytes: reg.Gauge("megh_checkpoint_bytes",
			"Size of the most recent session checkpoint image.", nil),
		cCkptErrs: reg.Counter("megh_checkpoint_errors_total",
			"Session checkpoints that failed to encode or to land on disk.", nil),
	}
	for i := range m.shards {
		m.shards[i].m = make(map[string]*session)
	}
	return m
}

// shardFor hashes the session id with FNV-1a onto one of the shards.
func (m *sessionManager) shardFor(id string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(id))
	return &m.shards[h.Sum32()%numShards]
}

// validSessionID accepts short, filename-safe names: an alphanumeric
// first byte followed by alphanumerics, '.', '_' or '-'. The charset
// excludes path separators, so ids embed safely in checkpoint filenames.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9':
		case i > 0 && (c == '.' || c == '_' || c == '-'):
		default:
			return false
		}
	}
	return true
}

// checkpointPath returns where session id persists, or "" when the
// manager has no checkpoint directory.
func (m *sessionManager) checkpointPath(id string) string {
	if m.ckptDir == "" {
		return ""
	}
	return filepath.Join(m.ckptDir, id+".ckpt")
}

// writeImage is the one writer of session checkpoints: it streams the
// resident learner's image into place atomically at the session's
// checkpoint path and returns its length. The caller holds s.mu and has
// checked that the session is resident and has a checkpoint path. A
// failure leaves the previous image in place and is counted.
func (m *sessionManager) writeImage(s *session) (int64, error) {
	start := time.Now()
	n, err := m.writeFile(s.ckptPath, s.learner.WriteImage)
	if err != nil {
		m.cCkptErrs.Inc()
		return 0, fmt.Errorf("checkpointing session %q: %w", s.id, err)
	}
	m.hCkpt.Observe(time.Since(start).Seconds())
	m.gCkptBytes.Set(float64(n))
	return n, nil
}

// checkpoint is writeImage, then the replication hook, run under s.mu with
// the path: what it opens there is this checkpoint's image.
func (m *sessionManager) checkpoint(s *session) (int64, error) {
	n, err := m.writeImage(s)
	if err == nil && m.onCheckpoint != nil {
		m.onCheckpoint(s.id, s.ckptPath)
	}
	return n, err
}

// revive gives s its learner; it is the one way a session's learner comes
// to life. With restore set it loads the image at s.ckptPath — when that is
// missing and the cluster promotion hook lands a replicated copy there, the
// load is retried once: the failover path after ownership moved — and
// refuses one whose world is not the session's; a missing image is an error
// wrapping fs.ErrNotExist, so a caller that may start fresh can tell.
// Without restore it builds a fresh learner.
// Either way the learner is instrumented on the session's registry and traced
// by its tracer; the caller holds s.mu (or owns s before it is registered)
// and attaches health itself.
func (m *sessionManager) revive(s *session, restore bool) error {
	var l *core.Megh
	var err error
	if restore {
		l, err = core.LoadStateFile(s.ckptPath)
		if errors.Is(err, fs.ErrNotExist) && m.promoteReplica != nil && m.promoteReplica(s.id, s.ckptPath) {
			l, err = core.LoadStateFile(s.ckptPath)
		}
		if err != nil {
			return fmt.Errorf("restoring session %q from %s: %w", s.id, s.ckptPath, err)
		}
		if lc := l.Config(); lc.NumVMs != s.spec.NumVMs || lc.NumHosts != s.spec.NumHosts {
			return fmt.Errorf("%w: %s holds a %d×%d learner, session %q is %d×%d", errCheckpointWorld,
				s.ckptPath, lc.NumVMs, lc.NumHosts, s.id, s.spec.NumVMs, s.spec.NumHosts)
		}
		s.restores++
		m.cRestore.Inc()
	} else if l, err = core.New(core.DefaultConfig(s.spec.NumVMs, s.spec.NumHosts, s.spec.Seed)); err != nil {
		return err
	}
	l.Instrument(s.reg)
	l.Trace(s.tracer)
	s.learner = l
	return nil
}

// release drops s's resident learner and everything that lives with it: the
// retained snapshot and request scratch, the health tracker's hold on it
// (its telemetry stays) and its share of residency. It is the one way a
// learner leaves memory — eviction, deletion and a rebalance handoff. The
// caller holds s.mu and has checked that the learner is resident.
func (m *sessionManager) release(s *session) {
	s.learner = nil
	s.snap = nil
	s.scratch.Store(nil)
	s.health.Detach()
	m.noteResident(-1)
}

// newTracker attaches a health tracker to a session's learner and publishes
// its gauges on the session's registry. It probes at health.DefProbeEvery.
func newTracker(l *core.Megh, seed int64, reg *obs.Registry) *health.Tracker {
	t := health.NewTracker(l, false, health.Config{Seed: seed})
	t.Instrument(reg)
	return t
}

// touch advances the LRU clock for the session.
func (m *sessionManager) touch(s *session) { s.lastTouch.Store(m.clock.Add(1)) }

// get looks a session up without creating or restoring anything.
func (m *sessionManager) get(id string) (*session, error) {
	sh := m.shardFor(id)
	sh.mu.RLock()
	s := sh.m[id]
	sh.mu.RUnlock()
	if s == nil {
		return nil, fmt.Errorf("%w: %q", errSessionNotFound, id)
	}
	return s, nil
}

// put creates (or idempotently re-acknowledges) a session. A new session
// starts from its checkpoint file when one already exists on disk — that
// is how learning survives a service restart — and from a fresh learner
// otherwise. Returns the session and whether it was newly created.
func (m *sessionManager) put(id string, spec SessionSpec) (*session, bool, error) {
	if !validSessionID(id) {
		return nil, false, fmt.Errorf("%w: %q", errInvalidSessionID, id)
	}
	spec = spec.normalized(m.overload, m.stepSeconds)
	if err := spec.validate(); err != nil {
		return nil, false, fmt.Errorf("%w: %v", errBadSpec, err)
	}

	sh := m.shardFor(id)
	sh.mu.Lock()
	if existing := sh.m[id]; existing != nil {
		sh.mu.Unlock()
		if existing.spec != spec {
			return nil, false, fmt.Errorf("%w: %q is %d×%d (seed %d), request wants %d×%d (seed %d)",
				errSessionExists, id,
				existing.spec.NumVMs, existing.spec.NumHosts, existing.spec.Seed,
				spec.NumVMs, spec.NumHosts, spec.Seed)
		}
		return existing, false, nil
	}

	tracer, err := trace.New(trace.Options{}) // a ring of trace.DefaultRingSize
	if err != nil {
		sh.mu.Unlock()
		return nil, false, err
	}
	s := &session{id: id, spec: spec, tracer: tracer, reg: obs.NewRegistry(), ckptPath: m.checkpointPath(id)}
	err = m.revive(s, s.ckptPath != "")
	if errors.Is(err, fs.ErrNotExist) {
		err = m.revive(s, false)
	}
	if err != nil {
		sh.mu.Unlock()
		if errors.Is(err, errCheckpointWorld) {
			// The request's spec contradicts the image on disk.
			err = fmt.Errorf("%w: %w", errSessionExists, err)
		}
		return nil, false, err
	}
	s.health = newTracker(s.learner, spec.Seed, s.reg)
	sh.m[id] = s
	sh.mu.Unlock()

	m.touch(s)
	m.gDefined.Add(1)
	m.noteResident(1)
	m.enforceCap(s)
	return s, true, nil
}

// delete removes a session and its checkpoint file. Pinned sessions (the
// default) are reserved and refuse deletion.
func (m *sessionManager) delete(id string) error {
	sh := m.shardFor(id)
	sh.mu.Lock()
	s := sh.m[id]
	if s == nil {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q", errSessionNotFound, id)
	}
	if s.pinned {
		sh.mu.Unlock()
		return fmt.Errorf("%w: %q is managed by the service configuration", errSessionReserved, id)
	}
	delete(sh.m, id)
	sh.mu.Unlock()

	s.mu.Lock()
	s.deleted = true
	if s.learner != nil {
		m.release(s)
	}
	path := s.ckptPath
	s.mu.Unlock()

	m.gDefined.Add(-1)
	if path != "" {
		if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
	}
	// In cluster mode the session's replicated images die with it, so a
	// later re-creation of the id starts fresh instead of resuming a
	// deleted tenant's learning.
	if m.onDelete != nil {
		m.onDelete(id)
	}
	return nil
}

// list snapshots every session, sorted by id.
func (m *sessionManager) list() []SessionInfo {
	var out []SessionInfo
	m.forEachSession(func(s *session) { out = append(out, s.info()) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// forEachSession calls fn for every registered session. The shard locks
// are released before fn runs, so fn may take session locks freely (but
// sees a snapshot of the membership, not a consistent cut). It is the one
// walk of the registry.
func (m *sessionManager) forEachSession(fn func(*session)) {
	var sessions []*session
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		sessions = sessions[:0]
		for _, s := range sh.m {
			sessions = append(sessions, s)
		}
		sh.mu.RUnlock()
		for _, s := range sessions {
			fn(s)
		}
	}
}

// fleetSnapshots re-exports every non-default session's metrics registry
// as renamed families (megh_decide_seconds → megh_session_decide_seconds)
// carrying a session label. Cardinality is bounded: the topK sessions by
// decision traffic keep their own label value and the rest fold into
// session="other" (counters and histogram buckets sum; summed gauges read
// as fleet totals). The default session is skipped — its instruments live
// unlabelled in the service registry already. Reading a registry never
// touches the learner, so evicted sessions contribute without restoring.
func (m *sessionManager) fleetSnapshots(topK int) []obs.FamilySnapshot {
	type ranked struct {
		s         *session
		decisions int
	}
	var rows []ranked
	m.forEachSession(func(s *session) {
		if s.pinned {
			return
		}
		s.mu.Lock()
		deleted, decisions := s.deleted, s.decisions
		s.mu.Unlock()
		if deleted {
			return
		}
		rows = append(rows, ranked{s, decisions})
	})
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].decisions != rows[j].decisions {
			return rows[i].decisions > rows[j].decisions
		}
		return rows[i].s.id < rows[j].s.id
	})

	dst := make(map[string]*obs.FamilySnapshot)
	for i, r := range rows {
		label := r.s.id
		if topK > 0 && i >= topK {
			label = "other"
		}
		obs.MergeSnapshots(dst, relabelForFleet(r.s.reg.Gather(), label))
	}
	out := make([]obs.FamilySnapshot, 0, len(dst))
	for _, f := range dst {
		out = append(out, *f)
	}
	return out
}

// relabelForFleet renames a session registry's families into the
// fleet-level megh_session_* namespace (avoiding collisions with the same
// families in the service registry) and prepends the session label to
// every point.
func relabelForFleet(fams []obs.FamilySnapshot, sessionLabel string) []obs.FamilySnapshot {
	out := make([]obs.FamilySnapshot, len(fams))
	for i, f := range fams {
		nf := f
		if rest, ok := strings.CutPrefix(f.Name, "megh_"); ok {
			nf.Name = "megh_session_" + rest
		} else {
			nf.Name = "megh_session_" + f.Name
		}
		nf.Points = make([]obs.MetricPoint, len(f.Points))
		for j, p := range f.Points {
			p.LabelSig = obs.WithLabelFirst(p.LabelSig, "session", sessionLabel)
			nf.Points[j] = p
		}
		out[i] = nf
	}
	return out
}

// noteResident tracks the live-learner count and mirrors it into the
// gauge.
func (m *sessionManager) noteResident(delta int64) {
	m.gLive.Set(float64(m.live.Add(delta)))
}

// withLearner is the one learner access path: it bumps the session's LRU
// stamp, runs fn under the session lock — lazily restoring an evicted
// learner from its checkpoint file first — and re-runs cap enforcement
// when the restore pushed residency over the cap.
func (m *sessionManager) withLearner(s *session, fn func(l *core.Megh) error) error {
	m.touch(s)
	s.mu.Lock()
	if s.deleted {
		s.mu.Unlock()
		return fmt.Errorf("%w: %q", errSessionDeleted, s.id)
	}
	restored := false
	if s.learner == nil {
		if err := m.revive(s, true); err != nil {
			s.mu.Unlock()
			return err
		}
		s.health.Reattach(s.learner)
		restored = true
		m.noteResident(1)
	}
	// The closure's deferred unlock releases the session even if fn panics
	// (the HTTP panic guard turns that into a 500).
	err := func() error {
		defer s.mu.Unlock()
		return fn(s.learner)
	}()
	if restored {
		m.enforceCap(s)
	}
	return err
}

// enforceCap evicts least-recently-used sessions until residency is back
// under the cap. The session that triggered enforcement (keep) is exempt
// this round — evicting what was just touched would thrash. Pinned
// sessions and sessions without a checkpoint path are never evicted, so
// residency may exceed the cap when nothing else is evictable; the cap is
// a memory target, not an admission limit.
func (m *sessionManager) enforceCap(keep *session) {
	if m.maxLive <= 0 {
		return
	}
	for m.live.Load() > int64(m.maxLive) {
		victim := m.lruVictim(keep)
		if victim == nil {
			return
		}
		if !m.evict(victim) {
			// Lost a race (victim touched, deleted, or already evicted) or
			// its checkpoint failed; rescan. lruVictim re-reads lastTouch,
			// so a touched victim falls out of the candidate ordering.
			if m.lruVictim(keep) == victim {
				return
			}
		}
	}
}

// lruVictim scans all shards for the evictable session with the oldest
// touch stamp. O(sessions), which is fine: eviction happens at most once
// per create/restore and session counts are administrative, not per-VM.
func (m *sessionManager) lruVictim(keep *session) *session {
	var victim *session
	var oldest int64
	m.forEachSession(func(s *session) {
		if s == keep || s.pinned || s.ckptPath == "" {
			return
		}
		s.mu.Lock()
		live := s.learner != nil && !s.deleted
		s.mu.Unlock()
		if t := s.lastTouch.Load(); live && (victim == nil || t < oldest) {
			victim, oldest = s, t
		}
	})
	return victim
}

// evict checkpoints the victim and drops its learner. The checkpoint
// write happens under the session lock, so an in-flight decide finishes
// first and the image is consistent; a failed write aborts the eviction
// (state loss is worse than an over-cap learner) and shows in
// megh_checkpoint_errors_total.
func (m *sessionManager) evict(s *session) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.learner == nil || s.deleted || s.pinned || s.ckptPath == "" {
		return false
	}
	if _, err := m.checkpoint(s); err != nil {
		return false
	}
	m.release(s)
	s.evictions++
	m.cEvict.Inc()
	return true
}

// checkpointAll persists every resident session that has a checkpoint
// path (evicted sessions are already on disk). Used by meghd's periodic
// and shutdown checkpoints. Returns how many files were written and the
// first error; megh_checkpoint_errors_total counts every one.
func (m *sessionManager) checkpointAll() (int, error) {
	var n int
	var firstErr error
	m.forEachSession(func(s *session) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.learner == nil || s.deleted || s.ckptPath == "" {
			return
		}
		if _, err := m.checkpoint(s); err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			n++
		}
	})
	return n, firstErr
}
