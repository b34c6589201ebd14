package main

// Load generation over loopback HTTP: a closed loop of one client, which
// sends its next request when the previous answer arrives. One client keeps
// at most two threads busy, the bench's and the daemon's, so on a small
// host the loop measures the program rather than the scheduler.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"airct/internal/serve"
)

// client sends requests over one connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 2 * daemonRequestTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one answered (or failed) request.
type outcome struct {
	req      request
	start    time.Time
	latency  time.Duration
	status   int
	err      error
	verdict  string
	elapsed  float64 // the server's elapsed-ms
	cacheHit bool
	stages   []serve.Stage
	raw      []byte // response body (kept by the traced run)
}

func (o *outcome) ok() bool { return o.err == nil && o.status == http.StatusOK }

// body encodes a request's wire form.
func body(r request) (path string, raw []byte, err error) {
	switch r.endpoint {
	case epDecide, epPortfolio:
		path = "/v1/decide"
		raw, err = json.Marshal(serve.DecideRequest{Program: r.program, Portfolio: r.endpoint == epPortfolio})
	case epExists:
		path = "/v1/exists"
		raw, err = json.Marshal(serve.ExistsRequest{Program: r.program})
	default:
		err = fmt.Errorf("unknown endpoint %q", r.endpoint)
	}
	return path, raw, err
}

// send issues one request, adding header when set, and times it from the
// send to the decoded answer.
func (c *client) send(r request, header http.Header) outcome {
	out := outcome{req: r}
	path, raw, err := body(r)
	if err != nil {
		out.err = err
		return out
	}
	hreq, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(raw))
	if err != nil {
		out.err = err
		return out
	}
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		hreq.Header[k] = v
	}
	out.start = time.Now()
	resp, err := c.hc.Do(hreq)
	if err != nil {
		out.err = err
		out.latency = time.Since(out.start)
		return out
	}
	out.raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.status = resp.StatusCode
	if err == nil && resp.StatusCode == http.StatusOK {
		err = decodeAnswer(r.endpoint, out.raw, &out)
	}
	out.latency = time.Since(out.start)
	out.err = err
	return out
}

func decodeAnswer(endpoint string, raw []byte, out *outcome) error {
	if endpoint == epExists {
		var ex serve.ExistsResponse
		if err := json.Unmarshal(raw, &ex); err != nil {
			return err
		}
		out.verdict, out.elapsed = ex.Verdict, ex.ElapsedMS
		return nil
	}
	var dec serve.DecideResponse
	if err := json.Unmarshal(raw, &dec); err != nil {
		return err
	}
	out.verdict, out.elapsed = dec.Verdict, dec.ElapsedMS
	out.cacheHit, out.stages = dec.CacheHit, dec.Stages
	return nil
}

// stats fetches /v1/stats.
func (c *client) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := c.hc.Get(c.base + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/stats: status %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// dispenser hands out a stream's requests block by block and stops on the
// first block boundary after the deadline (or after maxBlocks blocks, or
// maxRequests requests, when those are set). When markAt > 0, mark is
// called once, before the block after the first markAt.
type dispenser struct {
	s           *stream
	cur         []request
	deadline    time.Time
	blocks      int
	maxBlocks   int
	handed      int
	maxRequests int
	markAt      int
	mark        func()
}

func (d *dispenser) next() (request, bool) {
	if len(d.cur) == 0 {
		if !time.Now().Before(d.deadline) ||
			(d.maxBlocks > 0 && d.blocks >= d.maxBlocks) ||
			(d.maxRequests > 0 && d.handed >= d.maxRequests) {
			return request{}, false
		}
		if d.markAt > 0 && d.blocks == d.markAt {
			d.mark()
		}
		d.cur = d.s.block()
		d.blocks++
	}
	r := d.cur[0]
	d.cur = d.cur[1:]
	d.handed++
	return r, true
}

// closedLoop runs the client until the dispenser stops, pausing it for sp's
// probe every probeEvery, and returns every outcome with the phase's wall
// time less the pauses.
func closedLoop(c *client, d *dispenser, sp *speedMeter) ([]outcome, time.Duration) {
	var all []outcome
	paused0 := sp.pausedFor()
	start := time.Now()
	stopProbes := sp.every(probeEvery)
	for {
		r, ok := d.next()
		if !ok {
			break
		}
		sp.gate.RLock()
		o := c.send(r, nil)
		sp.gate.RUnlock()
		o.raw = nil
		all = append(all, o)
	}
	stopProbes()
	return all, time.Since(start) - (sp.pausedFor() - paused0)
}
