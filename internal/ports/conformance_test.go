// Conformance suite for architecture ports: every registered port must
// satisfy the contracts the port-generic engine relies on — a complete
// exit taxonomy, a snapshot-stable interrupt controller with the
// port's documented priority order, digest-stable machine snapshots,
// and mode-equivalence under the differential oracle. The package is
// external (ports_test) so it can assemble whole machines without
// creating an import cycle through internal/machine.
package ports_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"svtsim/internal/check"
	"svtsim/internal/guest"
	"svtsim/internal/hv"
	"svtsim/internal/isa"
	"svtsim/internal/machine"
	"svtsim/internal/ports"
	"svtsim/internal/sim"
	"svtsim/internal/snapshot"
	"svtsim/internal/words"

	_ "svtsim/internal/ports/armlike"
	_ "svtsim/internal/ports/x86"
)

func TestPortConformance(t *testing.T) {
	names := ports.Names()
	if len(names) < 2 {
		t.Fatalf("expected at least x86 and armlike registered, got %v", names)
	}
	for _, n := range names {
		p := ports.Get(n)
		t.Run(p.Name(), func(t *testing.T) {
			t.Run("taxonomy", func(t *testing.T) { testTaxonomy(t, p) })
			t.Run("irq-snapshot", func(t *testing.T) { testIRQSnapshot(t, p) })
			t.Run("irq-ordering", func(t *testing.T) { testIRQOrdering(t, p) })
			t.Run("machine-snapshot", func(t *testing.T) { testMachineSnapshot(t, p) })
			t.Run("differential", func(t *testing.T) { testDifferential(t, p) })
		})
	}
}

// testTaxonomy: every exit reason the engine can produce must render to
// a non-empty, distinct name and classify into a valid bucket.
func testTaxonomy(t *testing.T, p ports.Port) {
	seen := map[string]isa.ExitReason{}
	for r := isa.ExitReason(0); r < isa.NumExitReasons; r++ {
		name := p.ExitName(r)
		if name == "" {
			t.Errorf("reason %d: empty ExitName", r)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("reasons %d and %d share ExitName %q", prev, r, name)
		}
		seen[name] = r
		if c := p.Classify(r); c < 0 || c >= ports.NumClasses {
			t.Errorf("reason %d (%s): class %d out of range", r, name, c)
		}
	}
	// The shared synthetic markers must never be blamed on guest code.
	for _, r := range []isa.ExitReason{isa.ExitNone} {
		if c := p.Classify(r); c != ports.ClassSynthetic {
			t.Errorf("%s classified %v, want synthetic", p.ExitName(r), c)
		}
	}
	if p.IRQSectionPrefix() == "" {
		t.Error("empty IRQSectionPrefix")
	}
}

// testIRQSnapshot: SaveWords -> fresh controller -> LoadWords ->
// SaveWords must reproduce the exact word stream, including pending
// state beyond any hardware bound and an armed deadline timer.
func testIRQSnapshot(t *testing.T, p ports.Port) {
	eng := sim.New()
	c := p.NewIRQ(0, eng)
	// More vectors than the vGIC's list registers, delivered out of
	// order, so spill state is exercised where the port has it.
	for _, vec := range []int{ports.VecIPI, ports.VecVirtioNet, ports.VecTimer,
		ports.VecVirtioBlk, 0x31, 0x87} {
		c.DeliverDirect(vec)
	}
	c.SetDeadline(500)
	ws := saveIRQ(c)

	eng2 := sim.New()
	c2 := p.NewIRQ(0, eng2)
	if err := loadIRQ(c2, ws); err != nil {
		t.Fatalf("LoadWords of own SaveWords: %v", err)
	}
	if got := saveIRQ(c2); !reflect.DeepEqual(got, ws) {
		t.Fatalf("snapshot not stable: %v -> %v", ws, got)
	}
	if !c2.TimerArmed() {
		t.Error("restored controller lost its armed deadline")
	}
	v1, ok1 := c.PendingVector()
	v2, ok2 := c2.PendingVector()
	if ok1 != ok2 || v1 != v2 {
		t.Fatalf("restored PendingVector (%#x,%v), want (%#x,%v)", v2, ok2, v1, ok1)
	}

	// Malformed streams must be rejected, not absorbed, and leave the
	// controller as it was.
	type malformed struct {
		name string
		ws   []uint64
	}
	bads := []malformed{
		{"empty stream", []uint64{}},
		{"trailing words", append(append([]uint64(nil), ws...), 7)},
		{"vector out of range", []uint64{1, 256, 0, 0}},
		{"vectors out of order", []uint64{2, 0x40, 0x30, 0, 0}},
	}
	if p.Name() == "armlike" {
		// States delivery never produces: the list registers always
		// hold the lowest pending vectors, and nothing spills while one
		// is free.
		bads = append(bads,
			malformed{"lower vector spilled while a list register is free", []uint64{1, 0x40, 1, 0x10, 0}},
			malformed{"higher vector spilled while a list register is free", []uint64{1, 0x10, 1, 0x40, 0}},
			malformed{"spilled vector outranks a resident one", []uint64{4, 0x20, 0x30, 0x40, 0x50, 1, 0x10, 0}},
			malformed{"vector resident and spilled", []uint64{4, 0x20, 0x30, 0x40, 0x50, 1, 0x50, 0}},
		)
	}
	for _, bad := range bads {
		if err := loadIRQ(c2, bad.ws); err == nil {
			t.Errorf("LoadWords accepted %s", bad.name)
		}
		if got := saveIRQ(c2); !reflect.DeepEqual(got, ws) {
			t.Errorf("rejected %s changed the controller: %v, want %v", bad.name, got, ws)
		}
	}
}

// saveIRQ returns c's SaveWords output as flat logical words.
func saveIRQ(c ports.IRQController) []uint64 {
	s := new(words.Writer).Record(c.SaveWords)
	r := words.NewReader("irq", s)
	ws := make([]uint64, s.Len())
	for i := range ws {
		ws[i] = r.Word()
	}
	return ws
}

// loadIRQ runs c.LoadWords over ws and returns the reader's verdict,
// trailing words included.
func loadIRQ(c ports.IRQController, ws []uint64) error {
	r := words.NewReader("irq", new(words.Writer).Record(func(w *words.Writer) {
		for _, x := range ws {
			w.Word(x)
		}
	}))
	c.LoadWords(r)
	return r.Fin()
}

// testIRQOrdering: the controller must honor the port's documented
// priority order end to end — every delivered vector is eventually
// ackable, PendingVector is stable until acked, acks drain in strict
// priority order, and acking a non-pending vector fails.
func testIRQOrdering(t *testing.T, p ports.Port) {
	eng := sim.New()
	c := p.NewIRQ(0, eng)
	vecs := []int{ports.VecVirtioNet, ports.VecIPI, 0x31, ports.VecTimer,
		ports.VecVirtioBlk, 0x87} // > vGIC's 4 list registers
	for _, v := range vecs {
		c.DeliverDirect(v)
	}
	if c.Ack(ports.VecSpurious) {
		t.Error("acked a never-delivered vector")
	}

	var drained []int
	for c.HasPending() {
		v, ok := c.PendingVector()
		if !ok {
			t.Fatal("HasPending true but no PendingVector")
		}
		if v2, _ := c.PendingVector(); v2 != v {
			t.Fatalf("PendingVector not stable before ack: %#x then %#x", v, v2)
		}
		if !c.Ack(v) {
			t.Fatalf("ack of pending vector %#x failed", v)
		}
		if len(drained) > 2*len(vecs) {
			t.Fatal("controller never drains")
		}
		drained = append(drained, v)
	}

	want := append([]int(nil), vecs...)
	switch p.Name() {
	case "x86":
		sort.Sort(sort.Reverse(sort.IntSlice(want))) // highest vector wins
	default:
		sort.Ints(want) // vGIC: lowest INTID wins, maintenance refills spill
	}
	if !reflect.DeepEqual(drained, want) {
		t.Fatalf("drain order %v, want %v (port priority violated)", drained, want)
	}
	if c.Ack(vecs[0]) {
		t.Error("ack succeeded on a drained controller")
	}
}

// portMachine assembles and runs a nested machine on the given port,
// with an L2 workload that exercises disk, net, and privileged exits.
func portMachine(t testing.TB, p ports.Port, mode hv.Mode) (*machine.Machine, *machine.IOStack) {
	t.Helper()
	cfg := machine.DefaultConfig(mode)
	cfg.Port = p
	cfg.Costs = p.Costs()
	io := machine.WireNestedIO(&cfg, machine.DefaultIOParams())
	m := machine.NewNested(cfg)
	data := make([]byte, 512)
	for i := range data {
		data[i] = 0x42 + byte(i)
	}
	m.InstallL2(io, false, true, func(env *guest.Env) {
		for i := 0; i < 2; i++ {
			if !env.Blk.Write(uint64(64+i*8), data) {
				t.Error("guest write failed")
				return
			}
		}
		if !env.Blk.Read(64, make([]byte, len(data))) {
			t.Error("guest read failed")
		}
	})
	m.Run()
	return m, io
}

// testMachineSnapshot: a full machine snapshot taken on the port must
// restore digest-stably in every mode, and the controller state must
// appear under the port's own section prefix.
func testMachineSnapshot(t *testing.T, p ports.Port) {
	for _, mode := range hv.AllModes() {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			m, io := portMachine(t, p, mode)
			snap := snapshot.Capture(m, io)
			prefix := p.IRQSectionPrefix()
			found := false
			for _, sec := range snap.Sections {
				if len(sec.Name) > len(prefix) && sec.Name[:len(prefix)+1] == prefix+"/" {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("no %q/ section in snapshot (port codec not wired)", prefix)
			}
			before, after, err := snapshot.RoundTrip(m, io)
			if err != nil {
				t.Fatalf("round trip: %v", err)
			}
			if before != after {
				t.Fatalf("digest not stable across restore: %#x -> %#x", before, after)
			}
		})
	}
}

// testDifferential: the mode-equivalence oracle must hold on every
// port — all four modes agree on guest-visible outcomes for schedules
// mixing net round trips, IPIs across cores, and privileged exits.
func testDifferential(t *testing.T, p ports.Port) {
	if testing.Short() {
		t.Skip("differential smoke is slow")
	}
	s := &check.Schedule{
		Seed:  11,
		VCPUs: 1,
		Cores: 4,
		Ops: []check.Op{
			{Kind: check.OpCPUID, A: 1},
			{Kind: check.OpNetRR, A: 2},
			{Kind: check.OpIPI},
			{Kind: check.OpBlkWrite, A: 8, B: 1},
			{Kind: check.OpNetPing},
			{Kind: check.OpTimer, A: 50},
			{Kind: check.OpBlkRead, A: 8},
			{Kind: check.OpHypercall},
		},
	}
	v := check.CheckSchedule(s, &check.RunOpts{Port: p})
	if v.Failed() {
		t.Fatalf("modes inequivalent on port %s: %s", p.Name(), v)
	}
	if testing.Verbose() {
		fmt.Println(v)
	}
}
