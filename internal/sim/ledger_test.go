package sim

import "testing"

func TestLedgerAttribution(t *testing.T) {
	e := New()
	led := &Ledger{}
	e.SetLedger(led)
	e.Advance(100) // CatGuest (zero value)
	prev := led.Swap(CatL0)
	if prev != CatGuest {
		t.Fatalf("prev = %v", prev)
	}
	e.Advance(50)
	led.Swap(prev)
	e.Advance(25)
	if led.T[CatGuest] != 125 || led.T[CatL0] != 50 {
		t.Fatalf("ledger = %+v", led.T)
	}
	if led.Total() != 175 {
		t.Fatalf("total = %v", led.Total())
	}
	if led.cur != CatGuest {
		t.Fatalf("current = %v", led.cur)
	}
}

func TestLedgerDetach(t *testing.T) {
	e := New()
	led := &Ledger{}
	e.SetLedger(led)
	e.Advance(10)
	e.SetLedger(nil)
	e.Advance(10)
	if led.Total() != 10 {
		t.Fatalf("detached ledger accumulated: %v", led.Total())
	}
	if e.Ledger() != nil {
		t.Fatal("ledger not detached")
	}
}

func TestCategoryNames(t *testing.T) {
	want := map[Category]string{
		CatGuest:      "L2",
		CatSwitchL2L0: "Switch L2<->L0",
		CatTransform:  "Transform vmcs02/vmcs12",
		CatL0:         "L0 handler",
		CatSwitchL0L1: "Switch L0<->L1",
		CatL1:         "L1 handler",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d = %q, want %q", c, c.String(), name)
		}
	}
	if Category(99).String() != "?" {
		t.Fatal("unknown category must render as ?")
	}
}
