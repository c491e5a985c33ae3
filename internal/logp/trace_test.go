package logp

import (
	"strings"
	"testing"
)

// collectTrace runs prog with an event log attached and returns the
// events alongside the result.
func collectTrace(t *testing.T, params Params, prog Program, opts ...Option) ([]Event, Result) {
	t.Helper()
	var events []Event
	opts = append(opts, WithEventLog(func(e Event) { events = append(events, e) }))
	m := NewMachine(params, opts...)
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return events, res
}

func pingProgram(p Proc) {
	switch p.ID() {
	case 0:
		p.Send(1, 7, 42, 0)
	case 1:
		p.Recv()
	}
}

func TestTraceSingleMessageLifecycle(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	events, _ := collectTrace(t, params, pingProgram)
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(events), events)
	}
	kinds := []EventKind{EvSubmit, EvAccept, EvDeliver, EvAcquire}
	for i, k := range kinds {
		if events[i].Kind != k {
			t.Fatalf("event %d kind %v, want %v", i, events[i].Kind, k)
		}
		if events[i].Seq != 1 {
			t.Fatalf("event %d seq %d, want 1", i, events[i].Seq)
		}
	}
	// Submission at o=1; immediate acceptance; delivery at 9
	// (max-latency); acquisition at 9.
	if events[0].Time != 1 || events[1].Time != 1 || events[2].Time != 9 || events[3].Time != 9 {
		t.Fatalf("event times: %+v", events)
	}
	if err := CheckTrace(params, events); err != nil {
		t.Fatalf("CheckTrace: %v", err)
	}
}

func TestTraceValidatesBusyWorkloads(t *testing.T) {
	params := Params{P: 10, L: 12, O: 1, G: 3}
	prog := func(p Proc) {
		n := p.P()
		for k := 1; k <= 4; k++ {
			p.Send((p.ID()+k)%n, 0, int64(k), 0)
		}
		for k := 0; k < 4; k++ {
			p.Recv()
		}
	}
	for _, pol := range []DeliveryPolicy{DeliverMaxLatency, DeliverMinLatency, DeliverRandom} {
		for _, ord := range []AcceptOrder{AcceptFIFO, AcceptLIFO, AcceptRandom} {
			events, res := collectTrace(t, params, prog,
				WithDeliveryPolicy(pol), WithAcceptOrder(ord), WithSeed(3))
			if err := CheckTrace(params, events); err != nil {
				t.Fatalf("%v/%v: %v", pol, ord, err)
			}
			if int64(len(events)) != 4*res.MessagesSent {
				t.Fatalf("%v/%v: %d events for %d messages", pol, ord, len(events), res.MessagesSent)
			}
		}
	}
}

func TestTraceValidatesStallingRun(t *testing.T) {
	params := Params{P: 9, L: 4, O: 1, G: 2} // capacity 2
	prog := func(p Proc) {
		if p.ID() < 8 {
			p.Send(8, 0, 0, 0)
			return
		}
		for i := 0; i < 8; i++ {
			p.Recv()
		}
	}
	for _, ord := range []AcceptOrder{AcceptFIFO, AcceptLIFO, AcceptRandom} {
		events, res := collectTrace(t, params, prog, WithAcceptOrder(ord), WithSeed(5))
		if res.StallEvents == 0 {
			t.Fatalf("%v: expected stalling", ord)
		}
		if err := CheckTrace(params, events); err != nil {
			t.Fatalf("%v: stalling run violates model: %v", ord, err)
		}
	}
}

func TestCheckTraceCatchesCapacityViolation(t *testing.T) {
	params := Params{P: 3, L: 4, O: 1, G: 2} // capacity 2
	events := []Event{
		{Time: 1, Kind: EvSubmit, Seq: 1, Msg: Message{Src: 0, Dst: 2}},
		{Time: 1, Kind: EvAccept, Seq: 1, Msg: Message{Src: 0, Dst: 2}},
		{Time: 1, Kind: EvSubmit, Seq: 2, Msg: Message{Src: 1, Dst: 2}},
		{Time: 1, Kind: EvAccept, Seq: 2, Msg: Message{Src: 1, Dst: 2}},
		{Time: 3, Kind: EvSubmit, Seq: 3, Msg: Message{Src: 0, Dst: 2}},
		{Time: 3, Kind: EvAccept, Seq: 3, Msg: Message{Src: 0, Dst: 2}},
		{Time: 4, Kind: EvDeliver, Seq: 1, Msg: Message{Src: 0, Dst: 2}},
		{Time: 5, Kind: EvDeliver, Seq: 2, Msg: Message{Src: 1, Dst: 2}},
		{Time: 6, Kind: EvDeliver, Seq: 3, Msg: Message{Src: 0, Dst: 2}},
	}
	err := CheckTrace(params, events)
	if err == nil || !strings.Contains(err.Error(), "capacity") {
		t.Fatalf("expected capacity violation, got %v", err)
	}
}

func TestCheckTraceCatchesLatencyViolation(t *testing.T) {
	params := Params{P: 2, L: 4, O: 1, G: 2}
	events := []Event{
		{Time: 1, Kind: EvSubmit, Seq: 1, Msg: Message{Src: 0, Dst: 1}},
		{Time: 1, Kind: EvAccept, Seq: 1, Msg: Message{Src: 0, Dst: 1}},
		{Time: 9, Kind: EvDeliver, Seq: 1, Msg: Message{Src: 0, Dst: 1}},
	}
	err := CheckTrace(params, events)
	if err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("expected latency violation, got %v", err)
	}
}

func TestCheckTraceCatchesGapViolation(t *testing.T) {
	params := Params{P: 3, L: 8, O: 1, G: 4}
	events := []Event{
		{Time: 1, Kind: EvSubmit, Seq: 1, Msg: Message{Src: 0, Dst: 1}},
		{Time: 1, Kind: EvAccept, Seq: 1, Msg: Message{Src: 0, Dst: 1}},
		{Time: 3, Kind: EvSubmit, Seq: 2, Msg: Message{Src: 0, Dst: 2}},
		{Time: 3, Kind: EvAccept, Seq: 2, Msg: Message{Src: 0, Dst: 2}},
		{Time: 5, Kind: EvDeliver, Seq: 1, Msg: Message{Src: 0, Dst: 1}},
		{Time: 7, Kind: EvDeliver, Seq: 2, Msg: Message{Src: 0, Dst: 2}},
	}
	err := CheckTrace(params, events)
	if err == nil || !strings.Contains(err.Error(), "gap") {
		t.Fatalf("expected gap violation, got %v", err)
	}
}

func TestCheckTraceCatchesDoubleDeliveryInstant(t *testing.T) {
	params := Params{P: 3, L: 8, O: 1, G: 4}
	events := []Event{
		{Time: 1, Kind: EvSubmit, Seq: 1, Msg: Message{Src: 0, Dst: 2}},
		{Time: 1, Kind: EvAccept, Seq: 1, Msg: Message{Src: 0, Dst: 2}},
		{Time: 5, Kind: EvSubmit, Seq: 2, Msg: Message{Src: 1, Dst: 2}},
		{Time: 5, Kind: EvAccept, Seq: 2, Msg: Message{Src: 1, Dst: 2}},
		{Time: 6, Kind: EvDeliver, Seq: 1, Msg: Message{Src: 0, Dst: 2}},
		{Time: 6, Kind: EvDeliver, Seq: 2, Msg: Message{Src: 1, Dst: 2}},
	}
	err := CheckTrace(params, events)
	if err == nil || !strings.Contains(err.Error(), "two deliveries") {
		t.Fatalf("expected double-delivery violation, got %v", err)
	}
}

func TestCheckTraceCatchesLostMessage(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	events := []Event{
		{Time: 1, Kind: EvSubmit, Seq: 1, Msg: Message{Src: 0, Dst: 1}},
		{Time: 1, Kind: EvAccept, Seq: 1, Msg: Message{Src: 0, Dst: 1}},
	}
	err := CheckTrace(params, events)
	if err == nil || !strings.Contains(err.Error(), "never delivered") {
		t.Fatalf("expected lost-message violation, got %v", err)
	}
}

func TestAcceptOrderAffectsStallDistribution(t *testing.T) {
	// Under LIFO the earliest submitters are starved, so their stall
	// cycles dominate; total delivery throughput is unchanged.
	params := Params{P: 13, L: 4, O: 1, G: 2} // capacity 2
	prog := func(p Proc) {
		if p.ID() < 12 {
			p.Send(12, 0, int64(p.ID()), 0)
			return
		}
		for i := 0; i < 12; i++ {
			p.Recv()
		}
	}
	times := map[AcceptOrder]int64{}
	for _, ord := range []AcceptOrder{AcceptFIFO, AcceptLIFO, AcceptRandom} {
		m := NewMachine(params, WithAcceptOrder(ord), WithDeliveryPolicy(DeliverMinLatency), WithSeed(2))
		res, err := m.Run(prog)
		if err != nil {
			t.Fatalf("%v: %v", ord, err)
		}
		times[ord] = res.Time
		if res.MessagesSent != 12 {
			t.Fatalf("%v: %d messages", ord, res.MessagesSent)
		}
	}
	// The hot spot drains at one message per G under every order, so
	// completion times agree within a small additive band.
	for ord, tm := range times {
		if diff := tm - times[AcceptFIFO]; diff > 2*params.L || diff < -2*params.L {
			t.Fatalf("order %v time %d deviates from FIFO %d", ord, tm, times[AcceptFIFO])
		}
	}
}

func TestAcceptOrderString(t *testing.T) {
	if AcceptFIFO.String() != "fifo" || AcceptLIFO.String() != "lifo" || AcceptRandom.String() != "random" {
		t.Fatal("AcceptOrder strings wrong")
	}
	if !strings.Contains(AcceptOrder(9).String(), "9") {
		t.Fatal("unknown order should render its value")
	}
}

func TestEventKindString(t *testing.T) {
	want := map[EventKind]string{
		EvSubmit: "submit", EvAccept: "accept", EvDeliver: "deliver", EvAcquire: "acquire",
	}
	for k, s := range want {
		if k.String() != s {
			t.Fatalf("%v renders %q", k, k.String())
		}
	}
	if !strings.Contains(EventKind(9).String(), "9") {
		t.Fatal("unknown kind should render its value")
	}
}

func TestTraceCBCollectiveClean(t *testing.T) {
	// A full protocol run (the engine test can't import collective,
	// so emulate a two-level reduction by hand) must validate.
	params := Params{P: 7, L: 12, O: 2, G: 3}
	prog := func(p Proc) {
		// Leaves 3..6 send to 1 or 2; 1 and 2 combine and send to 0.
		switch {
		case p.ID() >= 3:
			parent := 1
			if p.ID() >= 5 {
				parent = 2
			}
			p.Send(parent, 0, int64(p.ID()), 0)
		case p.ID() == 1 || p.ID() == 2:
			a := p.Recv()
			b := p.Recv()
			p.Send(0, 0, a.Payload+b.Payload, 0)
		default:
			p.Recv()
			p.Recv()
		}
	}
	events, _ := collectTrace(t, params, prog, WithDeliveryPolicy(DeliverRandom), WithSeed(8))
	if err := CheckTrace(params, events); err != nil {
		t.Fatal(err)
	}
}

func TestTracePropertyRandomTraffic(t *testing.T) {
	// Random exchange programs must satisfy every model invariant
	// under all delivery-policy x accept-order combinations.
	policies := []DeliveryPolicy{DeliverMaxLatency, DeliverMinLatency, DeliverRandom}
	orders := []AcceptOrder{AcceptFIFO, AcceptLIFO, AcceptRandom}
	for seed := uint64(0); seed < 6; seed++ {
		pCount := 4 + int(seed)*2
		params := Params{P: pCount, L: 8 + int64(seed)*4, O: 1 + int64(seed%2), G: 2 + int64(seed%3)}
		fan := 2 + int(seed%3)
		prog := func(p Proc) {
			n := p.P()
			for k := 1; k <= fan; k++ {
				p.Send((p.ID()+k)%n, 0, int64(k), 0)
			}
			for k := 0; k < fan; k++ {
				p.Recv()
			}
		}
		for _, pol := range policies {
			for _, ord := range orders {
				var events []Event
				m := NewMachine(params,
					WithDeliveryPolicy(pol), WithAcceptOrder(ord), WithSeed(seed),
					WithEventLog(func(e Event) { events = append(events, e) }))
				res, err := m.Run(prog)
				if err != nil {
					t.Fatalf("seed %d %v/%v: %v", seed, pol, ord, err)
				}
				if err := CheckTrace(params, events); err != nil {
					t.Fatalf("seed %d %v/%v: %v", seed, pol, ord, err)
				}
				if res.MessagesSent != int64(pCount*fan) {
					t.Fatalf("seed %d: %d messages, want %d", seed, res.MessagesSent, pCount*fan)
				}
			}
		}
	}
}

// TestCheckTraceNamesLowestUndelivered: with several messages never
// delivered, the end-of-trace report must be a function of the trace,
// not of map iteration order — every call names the lowest one.
func TestCheckTraceNamesLowestUndelivered(t *testing.T) {
	params := Params{P: 4, L: 8, O: 1, G: 2}
	events := []Event{
		{Time: 1, Kind: EvSubmit, Seq: 7, Msg: Message{Src: 0, Dst: 3}},
		{Time: 1, Kind: EvAccept, Seq: 7, Msg: Message{Src: 0, Dst: 3}},
		{Time: 1, Kind: EvSubmit, Seq: 3, Msg: Message{Src: 1, Dst: 3}},
		{Time: 1, Kind: EvAccept, Seq: 3, Msg: Message{Src: 1, Dst: 3}},
		{Time: 2, Kind: EvSubmit, Seq: 5, Msg: Message{Src: 2, Dst: 3}},
		{Time: 2, Kind: EvAccept, Seq: 5, Msg: Message{Src: 2, Dst: 3}},
	}
	first := CheckTrace(params, events)
	if first == nil || !strings.Contains(first.Error(), "never delivered") || !strings.Contains(first.Error(), "message 3") {
		t.Fatalf("want a never-delivered report naming message 3, got %v", first)
	}
	for i := 0; i < 50; i++ {
		if err := CheckTrace(params, events); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d reported %v, first call %v", i, err, first)
		}
	}
}

// TestCheckTraceRejectsOutOfRangeProcessor: an event naming a processor
// outside [0, P) is a violation for CheckTrace, and the streaming
// Auditor records it instead of indexing out of range.
func TestCheckTraceRejectsOutOfRangeProcessor(t *testing.T) {
	params := Params{P: 2, L: 8, O: 1, G: 2}
	events := []Event{
		{Time: 1, Kind: EvSubmit, Seq: 1, Msg: Message{Src: 0, Dst: 5}},
		{Time: 1, Kind: EvAccept, Seq: 1, Msg: Message{Src: 0, Dst: 5}},
		{Time: 9, Kind: EvDeliver, Seq: 1, Msg: Message{Src: 0, Dst: 5}},
		{Time: 9, Kind: EvAcquire, Seq: 1, Msg: Message{Src: 0, Dst: 5}},
	}
	if err := CheckTrace(params, events); err == nil || !strings.Contains(err.Error(), "outside [0, 2)") {
		t.Fatalf("want an out-of-range processor violation, got %v", err)
	}
	a := NewAuditor(params, TraceOptions{})
	for _, ev := range events {
		a.Observe(ev)
	}
	if a.ViolationCount() != int64(len(events)) {
		t.Fatalf("ViolationCount = %d, want one per event (%d): %v", a.ViolationCount(), len(events), a.Violations())
	}
}
