package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The load generator of serve-mixed runs in a child process of the
// benchmark: the same binary, started with loadEnv set. The server's
// process then spends CPU time, heap and GC on serving alone, so its
// CPU time per answer is the server's cost, not the client's HTTP,
// body reads and digests besides.
//
// The parent writes a loadPlan to the child's stdin. The child connects,
// prints "start" when its schedule begins and "done" when every request
// has been answered, then one JSON line with a serveRecord per request,
// and exits. The parent measures its own CPU time between the two lines.
const loadEnv = "PERFBENCH_LOAD_CLIENT"

// reqHeader carries a request's index in its phase, so the server side
// of a traced phase can key its spans by it.
const reqHeader = "X-Perfbench-Req"

// loadLead is how long after printing "start" the first request is due,
// so the parent's CPU snapshot comes before any request.
const loadLead = 20 * time.Millisecond

// loadPlan is one phase's schedule, as the load process reads it.
type loadPlan struct {
	URL     string   `json:"url"`
	Workers int      `json:"workers"`
	Bodies  []string `json:"bodies"` // JSON request body per program
	// Known holds the digest of each hot program's warm-up answer; a
	// record of an answer with that digest carries no body.
	Known [][sha256.Size]byte `json:"known"`
	Reqs  []serveReq          `json:"reqs"`
}

// loadMain is the load process: it reads a plan from stdin, runs it and
// writes the records to stdout.
func loadMain(stdin io.Reader, stdout, stderr io.Writer) int {
	var p loadPlan
	if err := json.NewDecoder(stdin).Decode(&p); err != nil {
		fmt.Fprintf(stderr, "perfbench load: read plan: %v\n", err)
		return 1
	}
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     p.Workers,
		MaxIdleConnsPerHost: p.Workers,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()
	if err := openConns(client, p.URL, p.Workers); err != nil {
		fmt.Fprintf(stderr, "perfbench load: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, "start")
	recs := p.run(client, time.Now().Add(loadLead))
	fmt.Fprintln(stdout, "done")
	if err := json.NewEncoder(stdout).Encode(recs); err != nil {
		fmt.Fprintf(stderr, "perfbench load: write records: %v\n", err)
		return 1
	}
	return 0
}

// openConns opens the client's connections before the schedule starts,
// so no timed request pays for a TCP handshake.
func openConns(client *http.Client, url string, n int) error {
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			resp, err := client.Get(url + "/readyz")
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				if cerr := resp.Body.Close(); err == nil {
					err = cerr
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			return fmt.Errorf("open connection: %w", err)
		}
	}
	return nil
}

// run sends the schedule as an open loop from p.Workers goroutines,
// each with at most one request in flight. Whichever goroutine is free
// takes the next request and sends it at its due time, or at once when
// it is already late, so a request waits only when every connection is
// busy.
func (p *loadPlan) run(client *http.Client, start time.Time) []serveRecord {
	recs := make([]serveRecord, len(p.Reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(p.Workers)
	for w := 0; w < p.Workers; w++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= len(p.Reqs) {
					return
				}
				r := p.Reqs[j]
				due := start.Add(r.Due)
				time.Sleep(time.Until(due))
				sent := time.Now()
				rec := p.post(client, j, r.Prog)
				rec.Lat, rec.Lag = time.Since(due), sent.Sub(due)
				if rec.Err == "" && r.Prog < len(p.Known) && rec.Sum == p.Known[r.Prog] {
					rec.Body = nil // identical bytes to the warm-up answer
				}
				recs[j] = rec
			}
		}()
	}
	wg.Wait()
	return recs
}

// post sends request j, for program prog, and reads the whole answer.
func (p *loadPlan) post(client *http.Client, j, prog int) serveRecord {
	var rec serveRecord
	req, err := http.NewRequest(http.MethodPost, p.URL+"/analyze", bytes.NewReader([]byte(p.Bodies[prog])))
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	req.Header.Set(reqHeader, strconv.Itoa(j))
	resp, err := client.Do(req)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		rec.Err = err.Error()
	}
	rec.Status = resp.StatusCode
	rec.Cache = resp.Header.Get("X-Gnt-Cache")
	rec.Rung = resp.Header.Get("X-Gnt-Rung")
	rec.Sum = sha256.Sum256(rec.Body)
	return rec
}
