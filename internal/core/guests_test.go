package core

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/logp"
)

// TestGuestRecordSize pins the guest record, the memory core's engines
// touch per guest operation. It changes only on purpose.
func TestGuestRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("record sizes are pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(guest{}); got != 120 {
		t.Fatalf("guest is %d bytes, want 120: ROADMAP item 8 and DESIGN.md quote the record size; update them with this test", got)
	}
}

// Guests woken at one instant complete their Recv in id order, also
// when their ids lie in different words of the wake bitset. In both
// tests the message for the higher id arrives first, and both woken
// guests then panic; a run reports its first panic, so the error names
// the guest woken first.

func TestThm1WakesInIDOrderAcrossWords(t *testing.T) {
	sim := &LogPOnBSP{LogP: logp.Params{P: 130, L: 8, O: 1, G: 2}}
	_, err := sim.Run(func(p logp.Proc) {
		switch p.ID() {
		case 0:
			p.Send(129, 0, 0, 0)
			p.Send(1, 0, 0, 0)
		case 1, 129:
			p.Recv()
			panic("woken")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "processor 1 panicked") {
		t.Fatalf("error = %v, want processor 1's panic", err)
	}
}

func TestNetWakesInIDOrderAcrossWords(t *testing.T) {
	_, err := cubeMachine(128).Run(func(p logp.Proc) {
		switch p.ID() {
		case 1:
			p.Send(65, 0, 0, 0)
		case 64:
			p.Send(0, 0, 0, 0)
		case 0, 65:
			p.Recv()
			panic("woken")
		}
	})
	if err == nil || !strings.Contains(err.Error(), "processor 0 panicked") {
		t.Fatalf("error = %v, want processor 0's panic", err)
	}
}
