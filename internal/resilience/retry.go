package resilience

import "relaxlattice/internal/sim"

// Reasons a retried operation stopped without succeeding.
const (
	// ReasonNonRetryable: the last error was rejected by the caller's
	// retryable predicate (e.g. a semantic failure like ErrNoResponse,
	// which no amount of waiting fixes).
	ReasonNonRetryable = "non-retryable"
	// ReasonAttempts: the attempt cap was exhausted.
	ReasonAttempts = "attempts-exhausted"
)

// Outcome reports how a retried operation ended.
type Outcome struct {
	// Err is nil on success, otherwise the last attempt's error.
	Err error
	// Attempts is the number of attempts actually made (≥ 1).
	Attempts int
	// Elapsed is the simulation time from the first attempt to
	// completion — the operation's latency including every backoff.
	Elapsed float64
	// Reason is "" on success, or one of the Reason* constants.
	Reason string
}

// Do runs attempt under the retry policy on the discrete-event engine:
// the first attempt runs synchronously now, and each retry is
// scheduled after its backoff — simulation time passes between
// attempts, so crashed sites may recover and partitions may heal
// mid-operation. done is called exactly once, possibly from a later
// engine event. attempt receives the 1-based attempt number.
//
// Do never retries past MaxAttempts or past an error the retryable
// predicate rejects.
func Do(engine *sim.Engine, rng *sim.RNG, retryable func(error) bool, attempt func(n int) error, done func(Outcome)) {
	start := engine.Now()
	var run func(n int)
	run = func(n int) {
		err := attempt(n)
		out := Outcome{Err: err, Attempts: n, Elapsed: engine.Now() - start}
		switch {
		case err == nil:
			// success: Reason stays "".
		case !retryable(err):
			out.Reason = ReasonNonRetryable
		case n >= MaxAttempts:
			out.Reason = ReasonAttempts
		default:
			engine.After(backoff(n, rng), func() { run(n + 1) })
			return
		}
		done(out)
	}
	run(1)
}
