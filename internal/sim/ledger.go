package sim

// Category labels where charged virtual time is spent, mirroring the
// stages of the paper's Table 1 breakdown of a nested VM trap.
type Category uint8

// Categories.
const (
	CatGuest      Category = iota // 0: nested-VM (L2) execution
	CatSwitchL2L0                 // 1: explicit L2↔L0 transitions
	CatTransform                  // 2: vmcs02↔vmcs12 transformations
	CatL0                         // 3: L0 handler work (incl. folded lazy switching)
	CatSwitchL0L1                 // 4: explicit L0↔L1 transitions
	CatL1                         // 5: L1 handler work
	NumCategories
)

var categoryNames = [...]string{
	"L2", "Switch L2<->L0", "Transform vmcs02/vmcs12",
	"L0 handler", "Switch L0<->L1", "L1 handler",
}

func (c Category) String() string {
	if int(c) < len(categoryNames) {
		return categoryNames[c]
	}
	return "?"
}

// Ledger attributes Advance()d time to the current category. Attach one
// to an engine with SetLedger; when none is attached, accounting is free.
type Ledger struct {
	cur Category
	T   [NumCategories]Time
}

// Swap switches the current category and returns the previous one, so
// call sites can bracket a charge:
//
//	prev := led.Swap(sim.CatTransform)
//	... charges ...
//	led.Swap(prev)
func (l *Ledger) Swap(c Category) Category {
	prev := l.cur
	l.cur = c
	return prev
}

// Total reports the sum across categories.
func (l *Ledger) Total() Time {
	var s Time
	for _, t := range l.T {
		s += t
	}
	return s
}

// SetLedger attaches (or detaches, with nil) a ledger to the engine.
func (e *Engine) SetLedger(l *Ledger) { e.ledger = l }

// Ledger returns the attached ledger, if any.
func (e *Engine) Ledger() *Ledger { return e.ledger }
