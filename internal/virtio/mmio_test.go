package virtio

import (
	"testing"

	"svtsim/internal/ept"
	"svtsim/internal/mem"
)

func devMem(t *testing.T) MemIO {
	t.Helper()
	host := mem.New(1 << 22)
	tbl := ept.New("t")
	if err := tbl.Map(0, 0, 1<<22, ept.PermRW); err != nil {
		t.Fatal(err)
	}
	return ept.NewView(host, tbl)
}

func TestConfigProtocolBringsQueueUp(t *testing.T) {
	m := devMem(t)
	dc := &DeviceCommon{DevName: "d", Base: 0xFE000000, Mem: m}
	kicked := -1
	dc.OnKick = func(q int) { kicked = q }

	l := NewLayout(0x1000, 8)
	// The driver initializes its side, then programs the registers.
	if _, err := NewQueue(l, m, true); err != nil {
		t.Fatal(err)
	}
	writes := [][2]uint64{}
	exec := func(addr, val uint64) {
		writes = append(writes, [2]uint64{addr, val})
		dc.MMIOWrite(addr, val)
	}
	ConfigureQueue(exec, dc.Base, 1, l)
	if len(writes) != 6 {
		t.Fatalf("probe used %d register writes, want 6", len(writes))
	}
	if dc.Queue(1) == nil {
		t.Fatal("queue 1 must be live after ready")
	}
	if dc.Queue(0) != nil {
		t.Fatal("queue 0 must not exist")
	}
	// Kick dispatch carries the queue index.
	dc.MMIOWrite(dc.Base+RegQueueNotify, 1)
	if kicked != 1 {
		t.Fatalf("kick index = %d", kicked)
	}
	if dc.Kicks != 1 {
		t.Fatalf("kick counter = %d", dc.Kicks)
	}
}

func TestConfigQueueDisable(t *testing.T) {
	m := devMem(t)
	dc := &DeviceCommon{DevName: "d", Base: 0, Mem: m}
	l := NewLayout(0x1000, 4)
	if _, err := NewQueue(l, m, true); err != nil {
		t.Fatal(err)
	}
	ConfigureQueue(func(a, v uint64) { dc.MMIOWrite(a, v) }, 0, 0, l)
	if dc.Queue(0) == nil {
		t.Fatal("queue must be live")
	}
	dc.MMIOWrite(RegQueueReady, 0)
	if dc.Queue(0) != nil {
		t.Fatal("ready=0 must tear the queue down")
	}
}

func TestUnknownRegistersIgnored(t *testing.T) {
	m := devMem(t)
	dc := &DeviceCommon{DevName: "d", Base: 0, Mem: m}
	dc.MMIOWrite(0x100, 7) // nothing should happen
	dc.MMIOWrite(RegIntrAck, 1)
	if dc.Kicks != 0 {
		t.Fatal("non-notify writes must not count as kicks")
	}
}

func TestQueueSelBounds(t *testing.T) {
	m := devMem(t)
	dc := &DeviceCommon{DevName: "d", Base: 0, Mem: m}
	dc.MMIOWrite(RegQueueSel, 99) // out of range: ignored
	l := NewLayout(0x1000, 4)
	if _, err := NewQueue(l, m, true); err != nil {
		t.Fatal(err)
	}
	ConfigureQueue(func(a, v uint64) { dc.MMIOWrite(a, v) }, 0, 0, l)
	if dc.Queue(0) == nil {
		t.Fatal("selection must have recovered to a valid index")
	}
}

func TestNetBackendLoopback(t *testing.T) {
	// A net backend over a loopback transport: TX frames come back as RX.
	m := devMem(t)
	type lb struct {
		recv func(pkt []byte)
	}
	loop := &lb{}
	tr := transportFuncs{
		send: func(pkt []byte, done func()) {
			done()
			if loop.recv != nil {
				loop.recv(pkt)
			}
		},
		setRecv: func(fn func(pkt []byte)) { loop.recv = fn },
	}
	b := NewNetBackend("lo", 0xFE000000, m, tr)
	raised := 0
	b.RaiseGuestIRQ = func() { raised++ }
	b.NotifyHost = func() { b.OnIRQ() }

	// Driver side.
	txL := NewLayout(0x1000, 8)
	rxL := NewLayout(0x2000, 8)
	tx, err := NewQueue(txL, m, true)
	if err != nil {
		t.Fatal(err)
	}
	rx, err := NewQueue(rxL, m, true)
	if err != nil {
		t.Fatal(err)
	}
	exec := func(a, v uint64) { b.MMIOWrite(a, v) }
	ConfigureQueue(exec, b.Base, NetQTX, txL)
	ConfigureQueue(exec, b.Base, NetQRX, rxL)

	// Post an RX buffer, then send a frame.
	if _, err := rx.Post([]Buf{{GPA: 0x9000, Len: 256, DeviceWrite: true}}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("loopback frame")
	if err := m.Write(0x8000, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Post([]Buf{{GPA: 0x8000, Len: uint32(len(payload))}}); err != nil {
		t.Fatal(err)
	}
	b.MMIOWrite(b.Base+RegQueueNotify, NetQTX)

	if b.RxPackets != 1 {
		t.Fatalf("rx = %d", b.RxPackets)
	}
	if raised == 0 {
		t.Fatal("guest IRQ must be raised")
	}
	// The RX used ring must carry the frame.
	head, n, ok, err := rx.PopUsed()
	if err != nil || !ok {
		t.Fatalf("rx used: %v %v", ok, err)
	}
	_ = head
	got := make([]byte, n)
	if err := m.Read(0x9000, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Fatalf("rx data %q", got)
	}
	// TX used must retire the buffer.
	if _, _, ok, _ := tx.PopUsed(); !ok {
		t.Fatal("tx not retired")
	}
}

type transportFuncs struct {
	send    func(pkt []byte, done func())
	setRecv func(fn func(pkt []byte))
}

func (t transportFuncs) Send(pkt []byte, done func())    { t.send(pkt, done) }
func (t transportFuncs) SetReceiver(fn func(pkt []byte)) { t.setRecv(fn) }
