package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"crystalnet/internal/scenario"
	"crystalnet/internal/serve"
)

// loadtestFabric is scenarios/loadtest_fabric.json as of this benchmark's
// definition: a 6-pod fabric where a single link flap is rehearsed, so
// convergence dominates a cold request and the warm pool's fork shows.
//
//go:embed inputs/loadtest_fabric.json
var loadtestFabric []byte

// daemon is crystald's handler served on a loopback listener inside the
// benchmark process.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	url  string
	// handlerNS is the last request's time inside the server's handler;
	// with one client it belongs to that client's latest request.
	handlerNS atomic.Int64
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.NewServer(serve.Config{}), done: make(chan error, 1)}
	h := d.srv.Handler()
	d.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d.handlerNS.Store(int64(time.Since(t0)))
	})}
	d.url = "http://" + ln.Addr().String() + "/v1/rehearse"
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop closes the listener, waits for in-flight requests and the serving
// goroutine, then drains the server and closes its warm pool.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); err == nil {
		err = derr
	}
	return err
}

// rehearse POSTs one spec and returns the report body and pool header.
func (d *daemon) rehearse(client *http.Client, body []byte) ([]byte, string, error) {
	resp, err := client.Post(d.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, resp.Header.Get(serve.PoolHeader), nil
}

// runCrystaldWarm is the crystald-warm workload: start the rehearsal
// service and send one cold POST /v1/rehearse, which converges the fabric
// into the warm pool (set-up); then nproc keep-alive clients repeat the
// rehearsal in a closed loop, each waiting for its reply. It is the only
// workload that exercises HTTP/JSON and the warm pool, and it forks and
// re-converges under request concurrency rather than in a batch. Traffic
// crosses the host loopback, not a real link.
func runCrystaldWarm(b *bench) error {
	sp, err := scenario.Parse(loadtestFabric)
	if err != nil {
		return err
	}
	if err := checkInvariants(sp); err != nil {
		return err
	}
	sp.Seed = subSeed(b.seed, "emulation")
	b.info["emulation_seed"] = sp.Seed
	body, err := json.Marshal(sp)
	if err != nil {
		return err
	}

	// Every response must equal the batch run of the same spec byte for
	// byte.
	want, err := batchReport(body)
	if err != nil {
		return err
	}

	var d *daemon
	defer func() {
		if d != nil {
			_ = d.stop()
		}
	}()
	transport := &http.Transport{MaxIdleConns: b.nproc(), MaxIdleConnsPerHost: b.nproc()}
	defer transport.CloseIdleConnections()
	// A hung request fails its operation instead of the whole run.
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return err
			}
			d = nil
		}
		var got []byte
		var pool string
		err := b.timeSetup(func() (err error) {
			coldIntern()
			if d, err = startDaemon(); err != nil {
				return err
			}
			got, pool, err = d.rehearse(client, body)
			return err
		})
		if err != nil {
			return err
		}
		b.check(bytes.Equal(got, want) && pool == "miss",
			"cold rehearsal %d: pool %q, body equal to batch: %v", rep, pool, bytes.Equal(got, want))
	}

	var bs *base
	if b.traced {
		net, _, err := sp.BuildNetwork()
		if err != nil {
			return err
		}
		c, err := b.prepare(net, sp.Seed, -1)
		if err != nil {
			return err
		}
		if err := b.converge(c, -1); err != nil {
			return err
		}
		b.recordConvergence(c)
		if bs, err = b.checkpointBase(c); err != nil {
			return err
		}
	}
	b.liveHeap()

	var requests, hits atomic.Int64
	request := func() (time.Duration, []byte, error) {
		t0 := time.Now()
		got, pool, err := d.rehearse(client, body)
		rtt := time.Since(t0)
		if err != nil {
			return rtt, nil, err
		}
		requests.Add(1)
		if pool == "hit" {
			hits.Add(1)
		}
		if !bytes.Equal(got, want) {
			return rtt, nil, fmt.Errorf("response differs from the batch report (%d vs %d bytes)", len(got), len(want))
		}
		return rtt, got, nil
	}
	plain := func(int) (time.Duration, error) {
		rtt, _, err := request()
		return rtt, err
	}
	// A traced operation crosses each layer of one rehearsal in turn: the
	// pool lookup, the HTTP round trip (split into handler and transport
	// time), the report's JSON encoding, then the rehearsal's own fork,
	// faults, re-convergence, sweeps and teardown through core directly.
	traced := func(i int) (time.Duration, error) {
		err := b.tr.do("serve.pool_acquire", i, func() error {
			_, release, _, err := d.srv.Pool().Acquire(sp, scenario.Options{}, nil)
			if err == nil {
				release()
			}
			return err
		})
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		rtt, got, err := request()
		if err != nil {
			return rtt, err
		}
		handler := time.Duration(d.handlerNS.Load())
		b.tr.record(span{name: "serve.handler", op: i, start: t0, end: t0.Add(handler)})
		b.tr.record(span{name: "http.transport", op: i, start: t0.Add(handler), end: t0.Add(rtt)})
		var rep scenario.Report
		if err := json.Unmarshal(got, &rep); err != nil {
			return rtt, err
		}
		var again []byte
		_ = b.tr.do("scenario.report_json", i, func() error { again = rep.JSON(); return nil })
		if !bytes.Equal(again, got) {
			return rtt, fmt.Errorf("report does not re-encode to the bytes served")
		}
		return rtt, b.rehearse(bs, sp, i)
	}
	if err := b.measure(b.nproc(), plain, traced); err != nil {
		return err
	}
	if n := requests.Load(); n > 0 {
		b.layer["serve.pool_hit_pct"] = 100 * float64(hits.Load()) / float64(n)
	}
	return nil
}

// batchReport is the report crystalctl run-scenario -reuse would print for
// the spec body: converge once, then run the steps on a fork.
func batchReport(body []byte) ([]byte, error) {
	sp, err := scenario.Parse(body)
	if err != nil {
		return nil, err
	}
	cv, err := scenario.Converge(sp, scenario.Options{})
	if err != nil {
		return nil, err
	}
	rep, err := cv.Run(sp, scenario.Options{})
	if err != nil {
		return nil, err
	}
	if !rep.Passed {
		return nil, fmt.Errorf("batch rehearsal of %s failed: %s", sp.Name, firstFailure(rep))
	}
	return rep.JSON(), nil
}
