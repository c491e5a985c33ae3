package collective

import "fmt"

// Depth returns the predicted completion time of the broadcast: the
// maximum Informed time.
func (s *BroadcastSchedule) Depth() int64 {
	var d int64
	for _, t := range s.Informed {
		if t > d {
			d = t
		}
	}
	return d
}

// AssertDrained panics if messages are still held; tests call it at a
// protocol's quiescence points.
func (mb *Mailbox) AssertDrained() {
	if len(mb.held) != 0 {
		panic(fmt.Sprintf("collective: processor %d mailbox still holds %d messages", mb.Proc.ID(), len(mb.held)))
	}
}
