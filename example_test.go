package megh_test

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	"megh"
)

// Example demonstrates the quick-start flow: build a small data center,
// run the Megh learner, inspect the outcome. Deterministic given the
// seeds, so the output is stable.
func Example() {
	setup := megh.Setup{Dataset: megh.PlanetLab, Hosts: 10, VMs: 13, Steps: 36, Seed: 1}
	cfg, err := setup.Build()
	if err != nil {
		log.Fatal(err)
	}
	sim, err := megh.NewSimulator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	learner, err := megh.New(megh.DefaultConfig(setup.VMs, setup.Hosts, 42))
	if err != nil {
		log.Fatal(err)
	}
	result, err := sim.Run(learner)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steps simulated: %d\n", len(result.Steps))
	fmt.Printf("cost is positive: %v\n", result.TotalCost() > 0)
	// Output:
	// steps simulated: 36
	// cost is positive: true
}

// ExampleNewTHRMMT shows how the baseline policies plug into the same
// simulator as the learner.
func ExampleNewTHRMMT() {
	setup := megh.Setup{Dataset: megh.PlanetLab, Hosts: 10, VMs: 13, Steps: 24, Seed: 2}
	cfg, err := setup.Build()
	if err != nil {
		log.Fatal(err)
	}
	sim, err := megh.NewSimulator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := megh.NewTHRMMT()
	if err != nil {
		log.Fatal(err)
	}
	result, err := sim.Run(policy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(result.Policy)
	// Output:
	// THR-MMT
}

// ExampleHPProLiantG4 pins the paper's Table-1 power model.
func ExampleHPProLiantG4() {
	model := megh.HPProLiantG4()
	fmt.Printf("idle: %.0f W, full load: %.0f W\n", model.Power(0), model.Power(1))
	// Output:
	// idle: 86 W, full load: 117 W
}

// ExampleGeneratePlanetLabTraces shows the synthetic workload generator.
func ExampleGeneratePlanetLabTraces() {
	cfg := megh.DefaultPlanetLabTraceConfig(7)
	cfg.Steps = 288 // one day
	traces, err := megh.GeneratePlanetLabTraces(cfg, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d traces of %d samples\n", len(traces), traces[0].Len())
	// Output:
	// 3 traces of 288 samples
}

// ExampleNewSimChecker runs a simulation with the conservation-law
// checker attached. The checker is a pure observer — results are
// byte-identical to an unchecked run — and any violated invariant would
// have aborted the run with an error.
func ExampleNewSimChecker() {
	setup := megh.Setup{Dataset: megh.PlanetLab, Hosts: 10, VMs: 13, Steps: 24, Seed: 3}
	cfg, err := setup.Build()
	if err != nil {
		log.Fatal(err)
	}
	checker := megh.NewSimChecker()
	cfg.Checker = checker
	sim, err := megh.NewSimulator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	learner, err := megh.New(megh.DefaultConfig(setup.VMs, setup.Hosts, 42))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := sim.Run(learner); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("steps audited: %d\n", checker.Steps)
	// Output:
	// steps audited: 24
}

// ExampleServiceClient_Session walks the /v2 session API end to end:
// host the service in-process, create a named session, post a snapshot,
// and list what the service now manages. The reserved "default" session
// (sized by the service config) always exists alongside the created one.
func ExampleServiceClient_Session() {
	svc, err := megh.NewService(megh.ServiceConfig{NumVMs: 4, NumHosts: 3, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	ctx := context.Background()
	sess := megh.NewServiceClient(ts.URL, nil).Session("dc-east")
	info, err := sess.Create(ctx, megh.SessionSpec{NumVMs: 2, NumHosts: 2, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %s (live=%t)\n", info.ID, info.Live)

	resp, err := sess.Decide(ctx, megh.StateRequest{
		Step: 0,
		Hosts: []megh.HostState{
			{MIPS: 4000, RAMMB: 8192}, {MIPS: 4000, RAMMB: 8192},
		},
		VMs: []megh.VMState{
			{Host: 0, Utilization: 0.9, MIPS: 2500, RAMMB: 512},
			{Host: 0, Utilization: 0.8, MIPS: 2500, RAMMB: 512},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step %d migrations: %d\n", resp.Step, len(resp.Migrations))

	list, err := megh.NewServiceClient(ts.URL, nil).ListSessions(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range list.Sessions {
		fmt.Printf("session %s decisions=%d\n", s.ID, s.Decisions)
	}
	// Output:
	// created dc-east (live=true)
	// step 0 migrations: 0
	// session dc-east decisions=1
	// session default decisions=0
}

// ExampleNewFatTree shows the §7 topology extension.
func ExampleNewFatTree() {
	tree, err := megh.NewFatTree(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("k=4 fat-tree hosts: %d\n", tree.Hosts())
	fmt.Printf("hops 0→1 (same edge): %d\n", tree.Hops(0, 1))
	fmt.Printf("hops 0→15 (cross pod): %d\n", tree.Hops(0, 15))
	// Output:
	// k=4 fat-tree hosts: 16
	// hops 0→1 (same edge): 2
	// hops 0→15 (cross pod): 6
}
