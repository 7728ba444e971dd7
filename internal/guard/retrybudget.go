package guard

import "sync"

// RetryBudget is a token bucket that bounds serving-side retries to a
// fraction of observed traffic: each incoming request deposits Ratio
// tokens (capped at retryBurst), each retry withdraws one. Under
// overload the bucket drains and retries stop amplifying the load; in
// the steady state occasional retries always have budget. Deliberately time-free —
// refill is per-request, not per-second — so behaviour is deterministic
// for a given request sequence.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	ratio  float64
}

// retryBurst caps accumulated retry tokens.
const retryBurst = 10

// NewRetryBudget builds a budget earning ratio tokens per request
// (default 0.1) up to retryBurst. The bucket starts full so cold-start
// retries aren't starved.
func NewRetryBudget(ratio float64) *RetryBudget {
	if ratio <= 0 {
		ratio = 0.1
	}
	return &RetryBudget{tokens: retryBurst, ratio: ratio}
}

// OnRequest credits the budget for one observed request. Nil-safe.
func (rb *RetryBudget) OnRequest() {
	if rb == nil {
		return
	}
	rb.mu.Lock()
	rb.tokens += rb.ratio
	if rb.tokens > retryBurst {
		rb.tokens = retryBurst
	}
	rb.mu.Unlock()
}

// Spend withdraws one retry token, reporting whether the retry may
// proceed. Nil-safe: with no budget configured retries are always
// allowed.
func (rb *RetryBudget) Spend() bool {
	if rb == nil {
		return true
	}
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.tokens < 1 {
		return false
	}
	rb.tokens--
	return true
}
