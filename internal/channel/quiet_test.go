package channel

import (
	"fmt"
	"testing"

	"repro/internal/bits"
	"repro/internal/sim"
)

type fakeWatcher struct {
	name    string
	shrunk  int
	onEvent func(w *fakeWatcher)
}

func (w *fakeWatcher) QuietHorizonShrunk() {
	w.shrunk++
	if w.onEvent != nil {
		w.onEvent(w)
	}
}

func TestQuietUntilIsMinOverPromises(t *testing.T) {
	_, c := setup(0, 0)
	if q := c.QuietUntil(); q != sim.TimeMax {
		t.Fatalf("empty channel QuietUntil = %v, want TimeMax", q)
	}
	a := c.NewTxPromise(sim.TimeMax)
	b := c.NewTxPromise(5000)
	if q := c.QuietUntil(); q != 5000 {
		t.Fatalf("QuietUntil = %v, want 5000", q)
	}
	a.Promise(3000)
	if q := c.QuietUntil(); q != 3000 {
		t.Fatalf("QuietUntil = %v, want 3000", q)
	}
	b.Promise(sim.TimeMax)
	if q := c.QuietUntil(); q != 3000 {
		t.Fatalf("QuietUntil = %v, want 3000 (a still binds)", q)
	}
	if a.Until() != 3000 || b.Until() != sim.TimeMax {
		t.Fatalf("Until() = %v, %v", a.Until(), b.Until())
	}
}

func TestQuietUntilPinnedWhileInFlight(t *testing.T) {
	k, c := setup(0, 0)
	c.NewTxPromise(sim.TimeMax)
	k.Schedule(100, func() { c.Transmit("m", 10, vec(50), nil) })
	k.Schedule(120, func() {
		if q := c.QuietUntil(); q != k.Now() {
			t.Fatalf("mid-air QuietUntil = %v, want now %v", q, k.Now())
		}
	})
	// After delivery the horizon reopens.
	k.Schedule(1000, func() {
		if q := c.QuietUntil(); q != sim.TimeMax {
			t.Fatalf("post-delivery QuietUntil = %v, want TimeMax", q)
		}
	})
	k.Run()
}

func TestPromiseShrinkNotifiesWatchers(t *testing.T) {
	_, c := setup(0, 0)
	p := c.NewTxPromise(sim.TimeMax)
	w := &fakeWatcher{name: "w"}
	c.WatchQuiet(w)
	p.Promise(700) // shrink
	if w.shrunk != 1 {
		t.Fatalf("shrink notifications = %d, want 1", w.shrunk)
	}
	p.Promise(700) // no-op
	p.Promise(900) // grow
	if w.shrunk != 1 {
		t.Fatalf("grow/no-op must not notify; got %d", w.shrunk)
	}
	// A new transmitter registering counts as a shrink.
	c.NewTxPromise(100)
	if w.shrunk != 2 {
		t.Fatalf("registration notifications = %d, want 2", w.shrunk)
	}
	c.UnwatchQuiet(w)
	p.Promise(10)
	if w.shrunk != 2 {
		t.Fatalf("unwatched watcher notified; got %d", w.shrunk)
	}
	c.UnwatchQuiet(w) // removing twice is a no-op
}

func TestWatcherMayUnsubscribeInCallback(t *testing.T) {
	_, c := setup(0, 0)
	p := c.NewTxPromise(sim.TimeMax)
	var order []string
	a := &fakeWatcher{name: "a"}
	b := &fakeWatcher{name: "b"}
	a.onEvent = func(w *fakeWatcher) { order = append(order, "a"); c.UnwatchQuiet(a) }
	b.onEvent = func(w *fakeWatcher) { order = append(order, "b"); c.UnwatchQuiet(b) }
	c.WatchQuiet(a)
	c.WatchQuiet(b)
	p.Promise(50)
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("notification order = %v, want [a b]", order)
	}
	// Both unsubscribed from inside the callback; no one hears the next.
	p.Promise(10)
	if a.shrunk != 1 || b.shrunk != 1 {
		t.Fatalf("post-unsubscribe notifications: a=%d b=%d", a.shrunk, b.shrunk)
	}
}

// traceRx records every receiver callback with its timestamp.
type traceRx struct {
	name string
	out  *[]string
	k    *sim.Kernel
}

func (r *traceRx) Name() string { return r.name }
func (r *traceRx) RxStart(tx *Transmission) {
	*r.out = append(*r.out, fmt.Sprintf("%v %s start %s", r.k.Now(), r.name, tx.From))
}
func (r *traceRx) RxEnd(tx *Transmission, rx *bits.Vec, collided bool) {
	n := -1 // collided deliveries carry no payload
	if rx != nil {
		n = rx.Len()
	}
	*r.out = append(*r.out, fmt.Sprintf("%v %s end %s collided=%v len=%d",
		r.k.Now(), r.name, tx.From, collided, n))
}

// TestQuietRevocationMidFlight: a reactive-only transmitter (promise
// TimeMax) revokes its promise while another packet is mid-air and
// transmits at once on the same frequency. The revocation notifies
// watchers synchronously, both packets collide at both receivers, and a
// later clean packet proves the medium keeps working afterwards.
func TestQuietRevocationMidFlight(t *testing.T) {
	k, c := setup(0, 2)
	var trace []string
	c.Tune(&traceRx{name: "rx", out: &trace, k: k}, 10)
	c.Tune(&traceRx{name: "rx2", out: &trace, k: k}, 10)
	w := &fakeWatcher{name: "w"}
	c.WatchQuiet(w)
	p := c.NewTxPromise(sim.TimeMax)

	k.Schedule(1000, func() { c.Transmit("late", 10, vec(900), nil) })
	k.Schedule(1400, func() {
		p.Promise(k.Now()) // revocation: the watcher fires synchronously
		c.Transmit("early", 10, vec(200), nil)
	})
	k.Schedule(sim.SlotTicks*20, func() { c.Transmit("late", 10, vec(100), nil) })
	k.Run()

	// Two activations: the promise registration and the revocation.
	if w.shrunk != 2 {
		t.Fatalf("watcher notifications = %d, want 2", w.shrunk)
	}
	st := c.Stats()
	if st.Transmissions != 3 || st.Collisions != 2 {
		t.Fatalf("tx=%d collisions=%d, want 3 and 2", st.Transmissions, st.Collisions)
	}
	want := []string{
		"12601us rx end late collided=false len=100",
		"12601us rx2 end late collided=false len=100",
	}
	if got := trace[len(trace)-2:]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-revocation delivery = %v, want %v\nfull trace: %v", got, want, trace)
	}
}

// TestQuietWatcherSeesInFlightPin: a revocation notification that runs
// while a transmission is mid-air must read QuietUntil pinned to now,
// not the revoked promise's new horizon.
func TestQuietWatcherSeesInFlightPin(t *testing.T) {
	k, c := setup(0, 2)
	rx := &fakeRx{name: "rx"}
	c.Tune(rx, 10)
	p := c.NewTxPromise(sim.TimeMax)
	pinned := false
	w := &fakeWatcher{name: "w"}
	w.onEvent = func(*fakeWatcher) {
		if q := c.QuietUntil(); q == k.Now() {
			pinned = true
		} else {
			t.Errorf("watcher saw horizon %v with a packet in flight (now %v)", q, k.Now())
		}
	}
	c.WatchQuiet(w)
	k.Schedule(100, func() { c.Transmit("m", 10, vec(400), nil) })
	k.Schedule(300, func() { p.Promise(k.Now() + 50) })
	k.Run()
	if w.shrunk == 0 || !pinned {
		t.Fatalf("revocation not observed under in-flight pin (shrunk=%d pinned=%v)", w.shrunk, pinned)
	}
	if len(rx.got) != 1 {
		t.Fatalf("delivery broken by the revocation: %d packets", len(rx.got))
	}
}
