package pipeline

// SetSkip turns event-horizon cycle skipping on or off for p, so tests can
// compare a fast-forwarded run against a cycle-by-cycle one.
func SetSkip(p *Pipeline, on bool) { p.noSkip = !on }

// CancelPollInterval is how many cycles apart RunContext polls its context.
const CancelPollInterval = cancelCheckMask + 1
