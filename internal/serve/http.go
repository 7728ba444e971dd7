package serve

import (
	"net/http"
	"time"
)

// HTTPTimeouts are the server-side socket timeouts for kcserved's
// listener. The zero value of any field selects its default; a negative
// value disables that timeout (use sparingly — a disabled read timeout
// reopens the slowloris hole the defaults exist to close).
type HTTPTimeouts struct {
	// ReadHeader bounds how long a client may dribble request headers
	// (default 5s). This is the slowloris defense: without it, a few
	// hundred sockets each sending one header byte per minute pin the
	// listener's connection budget forever.
	ReadHeader time.Duration
	// Read bounds the entire request read (default 30s).
	Read time.Duration
	// Write bounds the response write, measured from the end of the
	// request read (default 2m — on-demand measurement legitimately
	// holds a response open far longer than a warm cache hit).
	Write time.Duration
	// Idle bounds how long a keep-alive connection may sit between
	// requests (default 2m).
	Idle time.Duration
}

// NewHTTPServer returns an http.Server for the service with every socket
// timeout set. http.Server's zero timeouts mean "wait forever", which
// lets a handful of deliberately slow clients (slowloris) exhaust the
// accept loop without ever completing a request; a query service with
// deadline budgets on its handlers but none on its sockets is only half
// hardened.
func NewHTTPServer(addr string, h http.Handler, t HTTPTimeouts) *http.Server {
	timeout := func(d, fallback time.Duration) time.Duration {
		switch {
		case d == 0:
			return fallback
		case d < 0:
			return 0 // explicit "no timeout"
		}
		return d
	}
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: timeout(t.ReadHeader, 5*time.Second),
		ReadTimeout:       timeout(t.Read, 30*time.Second),
		WriteTimeout:      timeout(t.Write, 2*time.Minute),
		IdleTimeout:       timeout(t.Idle, 2*time.Minute),
	}
}
