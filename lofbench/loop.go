package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// op is one request of one client. It returns the number of query points
// (or fitted points) the request produced LOF values for, and an error when
// the request failed or its answer did not pass its check.
type op func(ctx context.Context) (points int, err error)

// request is one completed request of a closed loop.
type request struct {
	start, end time.Time
	points     int
}

func (r request) dur() time.Duration { return r.end.Sub(r.start) }

// loopStats is what the clients of one closed loop saw.
type loopStats struct {
	reqs      []request // successful requests
	attempted int64
	failed    int64
	firstErr  error
	elapsed   time.Duration
	steal     float64      // share of the host's CPU time the hypervisor took during the loop
	byClient  []*loopStats // each client's share, for loops whose clients differ
}

// closedLoop runs every op on its own goroutine, back to back, until d has
// passed or ctx ends: each client sends its next request only after the
// previous reply, so a slower system receives less load. The request in
// flight at the deadline completes and counts; elapsed runs until the last
// client stops.
func closedLoop(ctx context.Context, d time.Duration, ops ...op) *loopStats {
	perClient := make([]*loopStats, len(ops))
	before := readUsage()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i, o := range ops {
		st := &loopStats{}
		perClient[i] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(end) {
				t0 := time.Now()
				n, err := o(ctx)
				t1 := time.Now()
				st.attempted++
				if err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = err
					}
					continue
				}
				st.reqs = append(st.reqs, request{start: t0, end: t1, points: n})
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	steal := readUsage().sub(before).stealFrac()

	out := &loopStats{elapsed: elapsed, steal: steal, byClient: perClient}
	for _, st := range perClient {
		st.elapsed, st.steal = elapsed, steal
		out.reqs = append(out.reqs, st.reqs...)
		out.attempted += st.attempted
		out.failed += st.failed
		if out.firstErr == nil {
			out.firstErr = st.firstErr
		}
	}
	return out
}

// rate is points per second over the whole loop, every request counted.
func (st *loopStats) rate() float64 {
	var points float64
	for _, r := range st.reqs {
		points += float64(r.points)
	}
	return ratio(points, st.elapsed.Seconds())
}

// latencies returns the durations of reqs in milliseconds.
func latencies(reqs []request) []float64 {
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = float64(r.dur()) / float64(time.Millisecond)
	}
	return out
}

// report adds the loop's throughput and latency quantiles over every
// successful request under the given metric names, and its request counts,
// to the result. The share of CPU the hypervisor took during the loop goes
// to the summary, so a run measured on a busy host can be told apart.
func (st *loopStats) report(res *result, rateName, rateUnit, latPrefix string) {
	lat := latencies(st.reqs)
	res.set(rateName, st.rate(), rateUnit)
	res.set(latPrefix+"_p50_ms", quantile(lat, 0.5), "ms")
	res.set(latPrefix+"_p99_ms", quantile(lat, 0.99), "ms")
	res.note(latPrefix+"_samples", float64(len(lat)), "count")
	res.note("steal_frac", st.steal, "ratio")
	res.count(st.attempted, st.failed, st.firstErr)
}

// httpServer is one in-process HTTP server on a loopback port.
type httpServer struct {
	url  string
	srv  *http.Server
	done chan struct{}
}

// serveHTTP starts h on a fresh loopback port.
func serveHTTP(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	s := &httpServer{url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed once stop runs
	}()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to exit.
func (s *httpServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("stopping %s: %w", s.url, err)
	}
	return nil
}

// newTransport returns a keep-alive transport owned by one caller, so
// connections are reused across requests and closed at teardown.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 8
	return t
}

// teardown runs cleanup functions in reverse order and returns the first
// error.
type teardown []func() error

func (t *teardown) add(f func() error) { *t = append(*t, f) }

func (t *teardown) run() error {
	var first error
	for i := len(*t) - 1; i >= 0; i-- {
		if err := (*t)[i](); err != nil && first == nil {
			first = err
		}
	}
	*t = nil
	return first
}
