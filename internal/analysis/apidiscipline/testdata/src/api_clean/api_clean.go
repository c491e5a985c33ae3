// Package api_clean is the negative fixture for the apidiscipline
// analyzer: the conforming forms of everything api_a flags.
package api_clean

import (
	"repro/internal/bsp"
	"repro/internal/logp"
)

type mailbox struct{}

func (mailbox) TryRecv() (logp.Message, bool) { return logp.Message{}, false }

// handledResults consumes the ok result, or discards it explicitly.
func handledResults(p bsp.Proc, mb mailbox) int64 {
	var sum int64
	for {
		m, ok := p.Recv()
		if !ok {
			break
		}
		sum += m.Payload
	}
	_, _ = mb.TryRecv() // explicit discard is a visible decision
	return sum
}
