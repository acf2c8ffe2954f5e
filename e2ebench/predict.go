package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync"
	"sync/atomic"
	"time"

	"drainnas/internal/api"
)

// outcome is one predict request as the load generator saw it.
type outcome struct {
	idx    int
	body   *body
	tenant string
	// due is when the request was scheduled (paced) or claimed (closed
	// loop); sent when its write began; first when the first response byte
	// arrived; done when the body was read.
	due, sent, first, done time.Time
	resp                   api.PredictResponse
	err                    error
}

func (o *outcome) latencyMS() float64 { return float64(o.done.Sub(o.due)) / float64(time.Millisecond) }
func (o *outcome) clientMS() float64  { return float64(o.done.Sub(o.sent)) / float64(time.Millisecond) }
func (o *outcome) firstMS() float64   { return float64(o.first.Sub(o.due)) / float64(time.Millisecond) }

// loadClient posts pre-encoded bodies over at most conns keep-alive
// connections.
type loadClient struct {
	http   *http.Client
	url    string
	routed bool
}

func newLoadClient(base string, conns int, routed bool) *loadClient {
	tr := &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DisableCompression: true, IdleConnTimeout: time.Minute,
	}
	return &loadClient{http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, url: base + "/v1/predict", routed: routed}
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// do sends o's body and fills in the timings and the decoded response.
func (c *loadClient) do(o *outcome) {
	if c.routed {
		o.tenant = tenantKeys[o.idx%len(tenantKeys)]
	}
	trace := &httptrace.ClientTrace{GotFirstResponseByte: func() { o.first = time.Now() }}
	ctx := httptrace.WithClientTrace(context.Background(), trace)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.url, bytes.NewReader(o.body.json))
	if err != nil {
		o.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if o.tenant != "" {
		req.Header.Set("Authorization", "Bearer "+o.tenant)
	}
	o.sent = time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		o.err = err
		o.done = time.Now()
		return
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.done = time.Now()
	if err != nil {
		o.err = err
		return
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
		return
	}
	if err := json.Unmarshal(raw, &o.resp); err != nil {
		o.err = fmt.Errorf("decoding response: %w", err)
	}
}

// openLoop calls do(k, due) for every arrival k at start+sched[k], whatever
// happened to earlier ones, on at most conns goroutines: a stall makes later
// arrivals wait for a free goroutine, and do times them from their due time.
func openLoop(sched []time.Duration, conns int, do func(k int, due time.Time)) {
	work := make(chan int, len(sched)) // the whole schedule may back up behind a stall
	dues := make([]time.Time, len(sched))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range work {
				do(k, dues[k])
			}
		}()
	}
	start := time.Now()
	for k := range sched {
		dues[k] = start.Add(sched[k])
		if d := time.Until(dues[k]); d > 0 {
			time.Sleep(d)
		}
		work <- k
	}
	close(work)
	wg.Wait()
}

// pacedSchedule is a predict workload's paced arrivals: at least minPaced,
// in whole rounds of one request per key.
func pacedSchedule(o options, keys int) []time.Duration {
	rate := pacedRate[o.workload]
	n := roundUp(max(int(rate*pacedShare*float64(o.seconds)), minPaced), keys)
	return poissonSchedule(o.seed, rate, n)
}

// pacedPhase sends the paced arrivals over the load client.
func pacedPhase(c *loadClient, pool *bodyPool, seed uint64, sched []time.Duration, conns int) []*outcome {
	outs := make([]*outcome, len(sched))
	for k := range outs {
		outs[k] = &outcome{idx: k, body: pool.requestAt(seed, k)}
	}
	openLoop(sched, conns, func(k int, due time.Time) {
		outs[k].due = due
		c.do(outs[k])
	})
	return outs
}

// saturationPhase runs a closed loop on conns connections for about d,
// then finishes the round in progress so every key is sent equally often.
func saturationPhase(c *loadClient, pool *bodyPool, seed uint64, first int, d time.Duration, conns int) ([]*outcome, time.Duration) {
	round := len(pool.keys)
	var (
		next  atomic.Int64
		limit atomic.Int64
		mu    sync.Mutex
		outs  []*outcome
		wg    sync.WaitGroup
	)
	limit.Store(math.MaxInt64)
	start := time.Now()
	deadline := start.Add(d)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= limit.Load() {
					return
				}
				o := &outcome{idx: first + int(i), body: pool.requestAt(seed, first+int(i)), due: time.Now()}
				c.do(o)
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
				if time.Now().After(deadline) {
					limit.CompareAndSwap(math.MaxInt64, int64(roundUp(int(next.Load()), round)))
				}
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}
