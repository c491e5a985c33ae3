// Package api_a is the failing fixture for the apidiscipline analyzer:
// dropped ok results.
package api_a

import (
	"repro/internal/bsp"
	"repro/internal/logp"
)

// mailbox stands in for TryRecv-style buffered receivers.
type mailbox struct{}

func (mailbox) TryRecv() (logp.Message, bool) { return logp.Message{}, false }

func droppedResults(p bsp.Proc, mb mailbox) {
	p.Recv()     // want `result of Recv dropped`
	mb.TryRecv() // want `result of TryRecv dropped`
	if _, ok := p.Recv(); ok {
		return // assigning the ok result is the conforming form
	}
}
