package server

import (
	"context"
	"sync"
	"testing"
)

// TestDecideConcurrentConsistency is the concurrency regression test for the
// scratch-aliasing bug in handleDecide: the handler used to release s.mu
// before copying the learner's decisions into the response, so a concurrent
// Decide could overwrite the scratch slice mid-encoding and one goroutine
// would receive another world's migrations.
//
// Each goroutine therefore gets a DISTINCT world — the VM→host placement is
// rotated by the goroutine index — and every response is checked for
// internal consistency against the request that produced it: the echoed
// step must match, every migration must reference a valid VM and host, and
// no migration may "move" a VM to the host it already occupies in this
// goroutine's world. A decision bleeding across requests trips the last
// check almost immediately, and `go test -race` (part of make check) flags
// the unsynchronized scratch read even when the payloads happen to agree.
func TestDecideConcurrentConsistency(t *testing.T) {
	const nVMs, nHosts, goroutines, rounds = 20, 10, 8, 30
	_, ts := newTestService(t, nVMs, nHosts, "")
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			req := rotatedWorld(nVMs, nHosts, g)
			sc := NewClient(ts.URL, nil).Session(DefaultSessionID)
			for i := 0; i < rounds; i++ {
				req.Step = g*rounds + i
				resp, err := sc.Decide(context.Background(), req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Step != req.Step {
					t.Errorf("goroutine %d: sent step %d, response echoes %d", g, req.Step, resp.Step)
					return
				}
				for _, m := range resp.Migrations {
					if m.VM < 0 || m.VM >= nVMs || m.Dest < 0 || m.Dest >= nHosts {
						t.Errorf("goroutine %d: migration out of range: %+v", g, m)
						return
					}
					if m.Dest == req.VMs[m.VM].Host {
						t.Errorf("goroutine %d: migration %+v targets the VM's current host %d — "+
							"decision likely bled in from a concurrent request's world",
							g, m, req.VMs[m.VM].Host)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// rotatedWorld builds a world whose placement is shifted by off hosts, so
// concurrent goroutines disagree about where every VM lives. Host 0 (in the
// rotated frame) is overloaded the same way testWorld's hotVM0 mode does it,
// guaranteeing the learner produces migrations to cross-check.
func rotatedWorld(nVMs, nHosts, off int) StateRequest {
	req := testWorld(nVMs, nHosts, true)
	for j := range req.VMs {
		req.VMs[j].Host = (req.VMs[j].Host + off) % nHosts
	}
	return req
}
