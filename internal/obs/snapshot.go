package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
)

// RegistrySnapshot is a point-in-time, JSON-marshalable copy of a
// Registry — the federation wire format. A node serves its snapshot on
// /v1/cluster/metrics; the scraped node merges peer snapshots into its
// own and renders the fleet view for /metrics?federate=1. Rendering a
// snapshot produces byte-identical output to rendering the live
// registry at the same instant.
type RegistrySnapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric family: every series sharing a name.
type FamilySnapshot struct {
	Name   string           `json:"name"`
	Help   string           `json:"help,omitempty"`
	Type   string           `json:"type"`
	Series []SeriesSnapshot `json:"series"`
}

// SeriesSnapshot is one labelled series; exactly one of Counter, Gauge,
// Hist is set, matching the family type. Gauge functions are evaluated
// at snapshot time, so the wire carries plain values.
type SeriesSnapshot struct {
	Labels  []Label            `json:"labels,omitempty"`
	Counter *uint64            `json:"counter,omitempty"`
	Gauge   *float64           `json:"gauge,omitempty"`
	Hist    *HistogramSnapshot `json:"histogram,omitempty"`
}

// Snapshot copies the registry's current state: families sorted by
// name, series sorted by label signature, gauge functions evaluated.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	out := RegistrySnapshot{Families: make([]FamilySnapshot, 0, len(names))}
	for _, name := range names {
		fam := r.families[name]
		fs := FamilySnapshot{Name: name, Help: fam.help, Type: string(fam.typ)}
		sigs := make([]string, 0, len(fam.series))
		for sig := range fam.series {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			s := fam.series[sig]
			ss := SeriesSnapshot{Labels: append([]Label(nil), s.labels...)}
			switch fam.typ {
			case typeCounter:
				v := s.counter.Value()
				ss.Counter = &v
			case typeGauge:
				v := 0.0
				if s.fn != nil {
					v = s.fn()
				} else {
					v = s.gauge.Value()
				}
				ss.Gauge = &v
			case typeHistogram:
				h := s.hist.Snapshot()
				ss.Hist = &h
			}
			fs.Series = append(fs.Series, ss)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}

// Merge folds a peer's snapshot into the receiver, series by series:
// counters and gauges sum (the federated document reads as fleet
// totals), histograms merge bucket-wise. A peer series with no local
// counterpart is adopted; a histogram whose bucket layout disagrees
// with the local one is skipped rather than corrupting the merge (the
// local series wins). Families disagreeing on type are skipped whole,
// and a malformed peer histogram — Counts not one per bucket plus +Inf
// — is dropped before anything reads it.
func (s *RegistrySnapshot) Merge(o RegistrySnapshot) {
	byName := make(map[string]*FamilySnapshot, len(s.Families))
	for i := range s.Families {
		byName[s.Families[i].Name] = &s.Families[i]
	}
	// Adopted peer-only families are collected and appended after the
	// loop: appending mid-loop could reallocate s.Families and orphan
	// the byName pointers.
	var adopted []FamilySnapshot
	for _, of := range o.Families {
		of.Series = wellFormed(of.Series)
		sf := byName[of.Name]
		if sf == nil {
			adopted = append(adopted, of)
			continue
		}
		if sf.Type != of.Type {
			continue
		}
		bySig := make(map[string]*SeriesSnapshot, len(sf.Series))
		for i := range sf.Series {
			bySig[labelSig(sf.Series[i].Labels)] = &sf.Series[i]
		}
		for _, os := range of.Series {
			ss := bySig[labelSig(os.Labels)]
			if ss == nil {
				sf.Series = append(sf.Series, os)
				continue
			}
			switch {
			case ss.Counter != nil && os.Counter != nil:
				*ss.Counter += *os.Counter
			case ss.Gauge != nil && os.Gauge != nil:
				*ss.Gauge += *os.Gauge
			case ss.Hist != nil && os.Hist != nil:
				if ss.Hist.wellFormed() && len(ss.Hist.Bounds) == len(os.Hist.Bounds) {
					merged := ss.Hist.Merge(*os.Hist)
					*ss.Hist = merged
				}
			}
		}
		sort.Slice(sf.Series, func(i, j int) bool {
			return labelSig(sf.Series[i].Labels) < labelSig(sf.Series[j].Labels)
		})
	}
	s.Families = append(s.Families, adopted...)
	sort.Slice(s.Families, func(i, j int) bool { return s.Families[i].Name < s.Families[j].Name })
}

// wellFormed returns the series without the malformed histograms among
// them, leaving the input slice untouched.
func wellFormed(series []SeriesSnapshot) []SeriesSnapshot {
	out := make([]SeriesSnapshot, 0, len(series))
	for _, ss := range series {
		if ss.Hist == nil || ss.Hist.wellFormed() {
			out = append(out, ss)
		}
	}
	return out
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4), deterministically: families
// sorted by name, series sorted by label signature — the same document
// Registry.WritePrometheus emits.
func (s RegistrySnapshot) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, fam := range s.Families {
		if fam.Help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", fam.Name, escapeHelp(fam.Help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", fam.Name, fam.Type)
		for _, ss := range fam.Series {
			switch {
			case ss.Counter != nil:
				fmt.Fprintf(&b, "%s%s %d\n", fam.Name, renderLabels(ss.Labels), *ss.Counter)
			case ss.Gauge != nil:
				fmt.Fprintf(&b, "%s%s %s\n", fam.Name, renderLabels(ss.Labels), formatFloat(*ss.Gauge))
			case ss.Hist != nil:
				writeHistogram(&b, fam.Name, ss.Labels, *ss.Hist)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Family returns the named family, or nil when the snapshot has none.
func (s RegistrySnapshot) Family(name string) *FamilySnapshot {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Sum adds up the counter and gauge values of the named family's series
// that carry every given label (the whole family when none is given).
// It is 0 when the family is absent or no series matches; histogram
// series are skipped.
func (s RegistrySnapshot) Sum(name string, labels ...Label) float64 {
	fam := s.Family(name)
	if fam == nil {
		return 0
	}
	sum := 0.0
	for _, ss := range fam.Series {
		if !hasLabels(ss.Labels, labels) {
			continue
		}
		switch {
		case ss.Counter != nil:
			sum += float64(*ss.Counter)
		case ss.Gauge != nil:
			sum += *ss.Gauge
		}
	}
	return sum
}

// hasLabels reports whether have carries every label of want.
func hasLabels(have, want []Label) bool {
	for _, w := range want {
		if !slices.Contains(have, w) {
			return false
		}
	}
	return true
}
