package logp

// DeferCap is a Program's batch capacity, for the external tests that
// size their batches from it.
const DeferCap = deferCap
