// Service loop-back demo: run meghd (the Megh scheduling service) in this
// process, then drive it over real HTTP from the simulator, exactly as a
// data-center monitoring pipeline would — snapshots in, migration
// decisions out, cost feedback closing the learning loop, and a Q-table
// checkpoint at the end.
//
//	go run ./examples/service
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"megh"
	"megh/internal/server"
)

func main() {
	const (
		nHosts = 40
		nVMs   = 52
		steps  = 288
	)

	// 1. Start the scheduling service on a loopback port.
	ckpt := filepath.Join(os.TempDir(), "megh-service-demo.ckpt")
	defer os.Remove(ckpt)
	svc, err := server.New(server.Config{
		NumVMs: nVMs, NumHosts: nHosts,
		CheckpointPath: ckpt, Seed: 42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	go func() {
		if serveErr := httpSrv.Serve(ln); serveErr != http.ErrServerClosed {
			log.Println("server:", serveErr)
		}
	}()
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("meghd serving %d VMs × %d hosts at %s\n\n", nVMs, nHosts, base)

	// 2. Build the simulated data center and drive the service over HTTP.
	setup := megh.Setup{Dataset: megh.PlanetLab, Hosts: nHosts, VMs: nVMs, Steps: steps, Seed: 7}
	cfg, err := setup.Build()
	if err != nil {
		log.Fatal(err)
	}
	simulator, err := megh.NewSimulator(cfg)
	if err != nil {
		log.Fatal(err)
	}
	client := server.NewClient(base, nil)
	if err := client.Health(); err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	def := client.Session(server.DefaultSessionID)
	policy := server.NewRemoteSessionPolicy(def)
	result, err := simulator.Run(policy)
	if err != nil {
		log.Fatal(err)
	}
	if err := policy.Err(); err != nil {
		log.Fatal("transport failure mid-run: ", err)
	}

	fmt.Printf("one simulated day through the HTTP loop:\n")
	fmt.Printf("  total cost:  %.2f USD\n", result.TotalCost())
	fmt.Printf("  migrations:  %d\n", result.TotalMigrations())
	fmt.Printf("  decide time: %.3f ms/step (including HTTP round-trip)\n\n",
		result.MeanDecideSeconds()*1000)

	// 3. Inspect and persist the learner via the API.
	stats, err := def.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("service stats: %d decisions, Q-table %d entries, temperature %.3f\n",
		stats.Decisions, stats.QTableNNZ, stats.Temperature)
	ck, err := def.Checkpoint(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint written: %s (%d bytes)\n\n", ck.Path, ck.Bytes)

	// 4. Multi-tenancy: the same service hosts further data centers as
	// named sessions, each an independent learner beside "default".
	const tHosts, tVMs, tSteps = 10, 13, 48
	sess := client.Session("dc-west")
	if _, err := sess.Create(ctx, server.SessionSpec{
		NumVMs: tVMs, NumHosts: tHosts, Seed: 11,
	}); err != nil {
		log.Fatal(err)
	}
	tenantSetup := megh.Setup{Dataset: megh.PlanetLab, Hosts: tHosts, VMs: tVMs, Steps: tSteps, Seed: 13}
	tenantCfg, err := tenantSetup.Build()
	if err != nil {
		log.Fatal(err)
	}
	tenantSim, err := megh.NewSimulator(tenantCfg)
	if err != nil {
		log.Fatal(err)
	}
	tenantPolicy := server.NewRemoteSessionPolicy(sess)
	tenantResult, err := tenantSim.Run(tenantPolicy)
	if err != nil {
		log.Fatal(err)
	}
	if err := tenantPolicy.Err(); err != nil {
		log.Fatal("transport failure mid-run: ", err)
	}
	fmt.Printf("tenant dc-west (%d VMs × %d hosts, %d steps): cost %.2f USD, %d migrations\n",
		tVMs, tHosts, tSteps, tenantResult.TotalCost(), tenantResult.TotalMigrations())

	list, err := client.ListSessions(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sessions on this service:")
	for _, s := range list.Sessions {
		fmt.Printf("  %-8s  %4d×%-4d  decisions=%d live=%t\n",
			s.ID, s.Spec.NumVMs, s.Spec.NumHosts, s.Decisions, s.Live)
	}
}
