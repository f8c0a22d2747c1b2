package main

import (
	"bytes"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync"
	"time"
)

// sample is one request's outcome as the client saw it.
type sample struct {
	kind string
	lat  time.Duration // send (open loop: due time) to last body byte
	lag  time.Duration // open loop: how late the request was sent
	ok   bool
}

// clientLog is what one connection sent and saw, in order.
type clientLog struct {
	sent    []*request
	samples []sample
	// acked lists the appends the daemon acknowledged, in send order.
	acked []*request
	// due is each append's due offset from the window start (open loop).
	due []time.Duration
}

// window is the result of one timed window.
type window struct {
	clients []*clientLog // the closed-loop query connections
	appends *clientLog   // the open-loop appender
	elapsed time.Duration
}

// send issues one request on c and reads the whole body.
func send(c *http.Client, base, client string, r *request) (int, []byte, error) {
	var buf bytes.Buffer
	status, err := sendInto(c, base, client, r, &buf)
	return status, buf.Bytes(), err
}

// sendInto is send reading the body into buf, which the timed loops reuse
// so that the load generator's own garbage collection stays out of the
// latencies it measures.
func sendInto(c *http.Client, base, client string, r *request, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, base+r.path, bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Topk-Client", client)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// runWindow drives the workload against base for dur: len(next)
// closed-loop connections, each sending the next query of its own stream as
// soon as the previous answer is read, and one open-loop connection sending
// appends at appendRate on a fixed schedule.
func runWindow(base string, next []func() *request, appends func() *request, dur time.Duration) *window {
	out := &window{appends: &clientLog{}}
	// Few collections in the load generator while it measures; its live
	// heap is a few MB.
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(dur)
	for i := range next {
		log := &clientLog{}
		out.clients = append(out.clients, log)
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			var buf bytes.Buffer
			for time.Now().Before(end) {
				r := next[i]()
				t0 := time.Now()
				status, err := sendInto(c, base, queryClient(i), r, &buf)
				log.sent = append(log.sent, r)
				log.samples = append(log.samples, sample{kind: r.kind, lat: time.Since(t0), ok: err == nil && status == http.StatusOK})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		log := out.appends
		c := newClient()
		defer c.CloseIdleConnections()
		var buf bytes.Buffer
		n := int(appendRate * dur.Seconds())
		for i := 0; i < n; i++ {
			offset := time.Duration(float64(i) / appendRate * float64(time.Second))
			due := start.Add(offset)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			r := appends()
			sent := time.Now()
			status, err := sendInto(c, base, appendClient, r, &buf)
			ok := err == nil && status == http.StatusOK
			log.sent = append(log.sent, r)
			log.due = append(log.due, offset)
			log.samples = append(log.samples, sample{kind: r.kind, lat: time.Since(due), lag: sent.Sub(due), ok: ok})
			if ok {
				log.acked = append(log.acked, r)
			}
		}
	}()
	wg.Wait()
	out.elapsed = time.Since(start)
	return out
}

// Client ids the window's connections send in X-Topk-Client; the replay
// uses the same ones.
const appendClient = "perfbench-appender"

func queryClient(i int) string { return "perfbench-" + strconv.Itoa(i) }

// all returns every sample of the window.
func (w *window) all() []sample {
	var out []sample
	for _, c := range w.clients {
		out = append(out, c.samples...)
	}
	return append(out, w.appends.samples...)
}
