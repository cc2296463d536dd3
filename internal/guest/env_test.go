package guest

import (
	"testing"

	"svtsim/internal/ept"
	"svtsim/internal/mem"
)

func testEnv() *Env {
	host := mem.New(1 << 22)
	tbl := ept.New("t")
	if err := tbl.Map(0, 0, 1<<22, ept.PermRW); err != nil {
		panic(err)
	}
	return NewEnv(nil, ept.NewView(host, tbl), 0x1000, 1<<20)
}

func TestAllocAligned(t *testing.T) {
	e := testEnv()
	a := e.Alloc(3)
	b := e.Alloc(5)
	if a%8 != 0 || b%8 != 0 {
		t.Fatalf("allocations not aligned: %#x %#x", a, b)
	}
	if b < a+3 {
		t.Fatal("allocations overlap")
	}
}

func TestAllocFreeRecycles(t *testing.T) {
	e := testEnv()
	a := e.Alloc(64)
	e.Free(a, 64)
	b := e.Alloc(64)
	if b != a {
		t.Fatalf("freed buffer not recycled: %#x vs %#x", b, a)
	}
	// Different bucket must not reuse it.
	c := e.Alloc(128)
	if c == a {
		t.Fatal("bucket mixing")
	}
}

func TestAllocRecyclingBoundsArena(t *testing.T) {
	e := testEnv()
	// Alloc/free the same size repeatedly: the arena must not grow.
	first := e.Alloc(4096)
	e.Free(first, 4096)
	for i := 0; i < 10000; i++ {
		g := e.Alloc(4096)
		if g != first {
			t.Fatalf("iteration %d: arena grew (%#x vs %#x)", i, g, first)
		}
		e.Free(g, 4096)
	}
}

func TestAllocExhaustionPanics(t *testing.T) {
	e := NewEnv(nil, nil, 0, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on exhaustion")
		}
	}()
	e.Alloc(64)
	e.Alloc(65)
}

func TestIRQDispatchRouting(t *testing.T) {
	e := testEnv()
	e.Net = &NetDriver{Env: e, Vector: 0x24}
	e.Blk = &BlkDriver{Env: e, Vector: 0x25}
	e.Timer = &TimerDriver{Env: e, Vector: 0xEC}
	d := e.IRQDispatch()
	d(0xEC)
	d(0x99) // unknown vectors are ignored
	if e.Timer.Fired() != 1 {
		t.Fatalf("fired = %d", e.Timer.Fired())
	}
}
