// Package power models the electrical power drawn by physical machines as a
// function of CPU utilization, following the SPECpower_ssj2008-derived
// tables the paper uses (Table 1). Energy is integrated by the simulator
// from these instantaneous power values.
package power

import "fmt"

// Model yields instantaneous power (Watts) at a CPU utilization in [0,1].
// Implementations must clamp out-of-range utilizations into [0,1].
type Model interface {
	// Power returns the power draw in Watts at the given utilization.
	Power(utilization float64) float64
	// Name identifies the model (e.g. the server SKU) in reports.
	Name() string
}

// Table is a Model interpolating linearly between power samples taken at
// 0 %, 10 %, …, 100 % utilization — the exact structure of the
// SPECpower_ssj2008 results in the paper's Table 1.
type Table struct {
	name string
	// watts[k] is the draw at utilization k/10.
	watts [11]float64
}

var _ Model = (*Table)(nil)

// NewTable builds a table model from 11 samples (0 %..100 % in 10 % steps).
// It returns an error when the samples are negative.
func NewTable(name string, watts [11]float64) (*Table, error) {
	for i, w := range watts {
		if w < 0 {
			return nil, fmt.Errorf("power: negative sample %g at %d%%", w, i*10)
		}
	}
	return &Table{name: name, watts: watts}, nil
}

// Name implements Model.
func (t *Table) Name() string { return t.name }

// Power implements Model by linear interpolation between the two bracketing
// 10 %-grid samples.
func (t *Table) Power(u float64) float64 {
	if u <= 0 {
		return t.watts[0]
	}
	if u >= 1 {
		return t.watts[10]
	}
	pos := u * 10
	lo := int(pos)
	frac := pos - float64(lo)
	return t.watts[lo]*(1-frac) + t.watts[lo+1]*frac
}

// mustTable builds the embedded reference tables; the inputs are compile-time
// constants so failure is a programming error.
func mustTable(name string, watts [11]float64) *Table {
	t, err := NewTable(name, watts)
	if err != nil {
		panic(err)
	}
	return t
}

// HPProLiantG4 returns the SPECpower table for the HP ProLiant ML110 G4
// (paper Table 1, first row).
func HPProLiantG4() *Table {
	return mustTable("HP ProLiant ML110 G4",
		[11]float64{86, 89.4, 92.6, 96, 99.5, 102, 106, 108, 112, 114, 117})
}

// HPProLiantG5 returns the SPECpower table for the HP ProLiant ML110 G5
// (paper Table 1, second row).
func HPProLiantG5() *Table {
	return mustTable("HP ProLiant ML110 G5",
		[11]float64{93.7, 97, 101, 105, 110, 116, 121, 125, 129, 133, 135})
}

// Linear is the classic idle+proportional model
// P(u) = idle + (max − idle)·u, provided as an alternative Model for
// sensitivity studies on the power-model choice.
type Linear struct {
	name       string
	idle, max_ float64
}

var _ Model = (*Linear)(nil)

// NewLinear builds a linear model. It returns an error when max < idle or
// either is negative.
func NewLinear(name string, idle, max float64) (*Linear, error) {
	if idle < 0 || max < idle {
		return nil, fmt.Errorf("power: invalid linear model idle=%g max=%g", idle, max)
	}
	return &Linear{name: name, idle: idle, max_: max}, nil
}

// Name implements Model.
func (l *Linear) Name() string { return l.name }

// Power implements Model.
func (l *Linear) Power(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return l.idle + (l.max_-l.idle)*u
}
