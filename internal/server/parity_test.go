package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"net/http/httptest"
	"os"
	"testing"

	"megh/internal/core"
	"megh/internal/experiments"
	"megh/internal/sim"
)

// The served run's fingerprint on PlanetLab 40 VMs × 60 hosts × 96 steps
// (setup seed 3, learner seed 7): 6 migrations, 2.065638 USD, and a
// 1 864-byte learner image. Both were measured with every snapshot in full
// form, and the session's elided traffic must reproduce them, so a change
// to either is a change in what the service decides or keeps.
const (
	servedRunDigest    = "453c4c95d02b4f213e4c5b575e4ac939bc12234dea462708d13e00f456951d64"
	servedImageSHA256  = "91bcbb39a4cf11e2d31745ebd7d6b717c74bbf3ac7e73ffd0e98b10eebbe8550"
	servedRunLearnSeed = 7
)

// stepDigest hashes every step's (migrations, rejected, cost bits).
func stepDigest(res *sim.Result) string {
	h := sha256.New()
	var b [24]byte
	for _, m := range res.Steps {
		binary.LittleEndian.PutUint64(b[0:], uint64(m.Migrations))
		binary.LittleEndian.PutUint64(b[8:], uint64(m.Rejected))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(m.TotalCost()))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// wireOrdered is an in-process learner fed the host lists the service
// rebuilds from a snapshot: each host's VMs in VM-index order. The wire
// carries only VM→host, so that is the one order a served learner sees.
type wireOrdered struct{ *core.Megh }

func (w wireOrdered) Decide(s *sim.Snapshot) []sim.Migration {
	c := *s
	c.HostVMs = make([][]int, len(s.HostVMs))
	for j, h := range s.VMHost {
		if h >= 0 {
			c.HostVMs[h] = append(c.HostVMs[h], j)
		}
	}
	return w.Megh.Decide(&c)
}

// TestServedRunParity: a simulated run driven over HTTP through a session
// decides step for step what the same learner decides in process, and
// leaves the learner image the pinned hash names.
func TestServedRunParity(t *testing.T) {
	cfg, err := experiments.Setup{Dataset: experiments.PlanetLab, Hosts: 60, VMs: 40, Steps: 96, Seed: 3}.Build()
	if err != nil {
		t.Fatal(err)
	}
	simulator, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{NumVMs: 4, NumHosts: 3, Seed: 1, CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	sc := NewClient(ts.URL, nil).Session("parity")
	if _, err := sc.Create(ctx, SessionSpec{NumVMs: 40, NumHosts: 60, Seed: servedRunLearnSeed}); err != nil {
		t.Fatal(err)
	}
	policy := NewRemoteSessionPolicy(sc)
	served, err := simulator.Run(policy)
	if err != nil {
		t.Fatal(err)
	}
	if err := policy.Err(); err != nil {
		t.Fatal(err)
	}
	if got := stepDigest(served); got != servedRunDigest {
		t.Errorf("served run digest %s (%d migrations, %.6f USD), want %s",
			got, served.TotalMigrations(), served.TotalCost(), servedRunDigest)
	}
	ck, err := sc.Checkpoint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	img, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(img); hex.EncodeToString(sum[:]) != servedImageSHA256 {
		t.Errorf("served image (%d bytes) hashes to %x, want %s", len(img), sum, servedImageSHA256)
	}

	learner, err := core.New(core.DefaultConfig(40, 60, servedRunLearnSeed))
	if err != nil {
		t.Fatal(err)
	}
	local, err := simulator.Run(wireOrdered{learner})
	if err != nil {
		t.Fatal(err)
	}
	if got := stepDigest(local); got != servedRunDigest {
		t.Errorf("in-process run digest %s (%d migrations, %.6f USD), want the served %s",
			got, local.TotalMigrations(), local.TotalCost(), servedRunDigest)
	}
}
