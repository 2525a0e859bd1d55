package obs

import (
	"fmt"
	"io"
	"sort"
)

func writef(w io.Writer, format string, args ...any) error {
	_, err := fmt.Fprintf(w, format, args...)
	return err
}

// MetricPoint is a point-in-time copy of one labelled instance inside a
// family. For counters and gauges Value carries the reading; for histograms
// Buckets holds the per-bucket (non-cumulative) counts aligned with the
// family's Bounds plus one trailing +Inf bucket, and Sum/Count carry the
// running aggregate.
type MetricPoint struct {
	// LabelSig is the rendered label block (`{k="v",…}` or "" for none),
	// identical to what the exposition writer prints.
	LabelSig string
	Value    float64
	Buckets  []int64
	Sum      float64
	Count    int64
}

// FamilySnapshot is a point-in-time copy of one metric family: its
// metadata plus every labelled instance, points sorted by label signature.
type FamilySnapshot struct {
	Name string
	Help string
	Type string // "counter" | "gauge" | "histogram"
	// Bounds are the histogram bucket upper bounds (nil for other types).
	Bounds []float64
	Points []MetricPoint
}

// Gather returns a deterministic snapshot of every family in the registry,
// sorted by name. It is the introspection surface for the metric-name lint
// and for fleet-level re-export of per-session registries: callers can
// relabel, merge, and re-render snapshots without holding any registry
// locks.
func (r *Registry) Gather() []FamilySnapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	out := make([]FamilySnapshot, 0, len(fams))
	for _, f := range fams {
		out = append(out, f.snapshot())
	}
	return out
}

func (f *family) snapshot() FamilySnapshot {
	fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.typ}
	if f.typ == typeHistogram {
		fs.Bounds = append([]float64(nil), f.buckets...)
	}
	f.mu.Lock()
	keys := make([]string, 0, len(f.instances))
	for k := range f.instances {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	insts := make([]any, len(keys))
	for i, k := range keys {
		insts[i] = f.instances[k]
	}
	f.mu.Unlock()

	for i, key := range keys {
		p := MetricPoint{LabelSig: key}
		switch m := insts[i].(type) {
		case *Counter:
			p.Value = float64(m.Value())
		case *Gauge:
			p.Value = m.Value()
		case *Histogram:
			p.Buckets = make([]int64, len(m.counts))
			for j := range m.counts {
				p.Buckets[j] = m.counts[j].Load()
				p.Count += p.Buckets[j]
			}
			p.Sum = m.Sum()
		}
		fs.Points = append(fs.Points, p)
	}
	return fs
}

// WithLabelFirst splices one extra label pair at the front of a rendered
// label signature. Prepending (rather than sorted insertion) keeps the
// operation cheap and deterministic without re-parsing escaped values; the
// exposition format does not require sorted label order.
func WithLabelFirst(sig, key, value string) string {
	extra := key + `="` + escapeLabelValue(value) + `"`
	if sig == "" {
		return "{" + extra + "}"
	}
	return "{" + extra + "," + sig[1:]
}

// MergeSnapshots folds src's points into dst under the same family name,
// summing counters, gauges, and histogram buckets point-wise by label
// signature. dst families are created as needed. Gauges fold as sums: for
// fleet roll-ups this reads as a fleet total (document per metric whether a
// summed gauge is meaningful). Histograms merge only when bucket bounds
// match; mismatched families are skipped.
func MergeSnapshots(dst map[string]*FamilySnapshot, src []FamilySnapshot) {
	for i := range src {
		s := &src[i]
		d, ok := dst[s.Name]
		if !ok {
			cp := FamilySnapshot{Name: s.Name, Help: s.Help, Type: s.Type,
				Bounds: append([]float64(nil), s.Bounds...)}
			for _, p := range s.Points {
				cp.Points = append(cp.Points, clonePoint(p))
			}
			dst[s.Name] = &cp
			continue
		}
		if d.Type != s.Type || len(d.Bounds) != len(s.Bounds) {
			continue
		}
		for _, p := range s.Points {
			mergePoint(d, p)
		}
	}
}

func clonePoint(p MetricPoint) MetricPoint {
	p.Buckets = append([]int64(nil), p.Buckets...)
	return p
}

func mergePoint(d *FamilySnapshot, p MetricPoint) {
	for i := range d.Points {
		if d.Points[i].LabelSig == p.LabelSig {
			d.Points[i].Value += p.Value
			d.Points[i].Sum += p.Sum
			d.Points[i].Count += p.Count
			for j := range p.Buckets {
				if j < len(d.Points[i].Buckets) {
					d.Points[i].Buckets[j] += p.Buckets[j]
				}
			}
			return
		}
	}
	d.Points = append(d.Points, clonePoint(p))
}

// WriteSnapshots renders family snapshots in the Prometheus text format,
// families sorted by name and points by label signature. It is the one
// exposition writer: WritePrometheus renders a live registry through it.
func WriteSnapshots(w io.Writer, fams []FamilySnapshot) error {
	sorted := append([]FamilySnapshot(nil), fams...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for i := range sorted {
		if err := writeSnapshot(w, &sorted[i]); err != nil {
			return err
		}
	}
	return nil
}

func writeSnapshot(w io.Writer, f *FamilySnapshot) error {
	if len(f.Points) == 0 {
		return nil
	}
	pts := append([]MetricPoint(nil), f.Points...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].LabelSig < pts[j].LabelSig })
	if f.Help != "" {
		if err := writef(w, "# HELP %s %s\n", f.Name, escapeHelp(f.Help)); err != nil {
			return err
		}
	}
	if err := writef(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
		return err
	}
	for _, p := range pts {
		switch f.Type {
		case typeHistogram:
			var cum int64
			for j, bound := range f.Bounds {
				if j < len(p.Buckets) {
					cum += p.Buckets[j]
				}
				if err := writef(w, "%s_bucket%s %d\n",
					f.Name, withLabel(p.LabelSig, "le", formatFloat(bound)), cum); err != nil {
					return err
				}
			}
			if len(p.Buckets) > len(f.Bounds) {
				cum += p.Buckets[len(f.Bounds)]
			}
			if err := writef(w, "%s_bucket%s %d\n",
				f.Name, withLabel(p.LabelSig, "le", "+Inf"), cum); err != nil {
				return err
			}
			if err := writef(w, "%s_sum%s %s\n", f.Name, p.LabelSig, formatFloat(p.Sum)); err != nil {
				return err
			}
			if err := writef(w, "%s_count%s %d\n", f.Name, p.LabelSig, cum); err != nil {
				return err
			}
		case typeCounter:
			if err := writef(w, "%s%s %d\n", f.Name, p.LabelSig, int64(p.Value)); err != nil {
				return err
			}
		default:
			if err := writef(w, "%s%s %s\n", f.Name, p.LabelSig, formatFloat(p.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}
