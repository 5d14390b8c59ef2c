package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/mantle"
	"repro/internal/mds"
	"repro/internal/mon"
	"repro/internal/types"
)

// control-plane: Paxos, monitors, gossip and Mantle, which no data-path
// workload touches. Three monitors and twelve memory-backed OSDs with
// fig-8's settings (gossip fanout 3, 5 ms proposal interval) plus the
// fabric latency, so commits and gossip hops pay real round trips. One
// client loops over four steps: a service-metadata commit, a read that
// must return it, a class install timed until every OSD runs the new
// version, and a Mantle decision on the installed sequencer policy,
// checked against the policy's arithmetic. Latency here is set by timer
// intervals and round trips, so CPU per op is the figure most likely to
// move.

const (
	probeClassName = "pb.probe"
	policyVersion  = "pb-seq"
	balancerRanks  = 3
)

type controlPlane struct {
	opts options
	booted

	monc   *mon.Client
	bal    *mantle.Balancer
	mdsMap *types.MDSMap
	watch  *classWatch
	rng    *rand.Rand
	step   int
}

func newControlPlane(opts options, _ int, _ *tracer) workload {
	return &controlPlane{opts: opts, rng: rngFor(opts.seed, "cp.loads", 0)}
}

func (w *controlPlane) setup(ctx context.Context) error {
	cl, err := core.Boot(ctx, core.Options{
		Mons: 3, OSDs: 12, GossipFanout: 3, ProposalInterval: 5 * time.Millisecond, Seed: w.opts.seed,
		NetLatency: fabricLatency,
	})
	if err != nil {
		return err
	}
	w.cl = cl
	w.watch = watchClass(cl.OSDs, probeClassName)
	w.monc = cl.NewMonClient("client.pb.cp")
	rc := cl.NewRadosClient("client.pb.cp.admin")
	if err := rc.RefreshMap(ctx); err != nil {
		return err
	}
	if err := mantle.InstallPolicy(ctx, rc, w.monc, "metadata", policyVersion, mantle.PolicySequencer); err != nil {
		return err
	}
	if w.mdsMap, err = w.monc.GetMDSMap(ctx); err != nil {
		return err
	}
	if w.mdsMap.BalancerVersion != policyVersion {
		return fmt.Errorf("balancer version %q after install, want %q", w.mdsMap.BalancerVersion, policyVersion)
	}
	w.bal = mantle.NewBalancer(cl.Net, "client.pb.cp.mantle", cl.MonIDs(), "metadata", time.Second)
	// The first decision fetches and compiles the policy; later ones hit
	// the compiled cache, as every tick after an activation does.
	_, err = w.bal.Decide(ctx, mds.BalancerInput{Loads: balancerLoads(w.rng, balancerRanks), MDSMap: w.mdsMap})
	return err
}

func (w *controlPlane) run(ctx context.Context, deadline time.Time, rec *recorder) {
	writes, reads := rec.client()
	for time.Now().Before(deadline) {
		i := w.step
		w.step++
		key := fmt.Sprintf("pb.k%d", i%16)
		val := serviceValue(w.opts.seed, i)

		rec.attempted.Add(1)
		start := time.Now()
		var err error
		rec.tr.time("mon.commit", func() { err = w.monc.SetService(ctx, types.MapMDS, key, val) })
		if err != nil {
			rec.fail("set service %s: %v", key, err)
			continue
		}
		writes.add(time.Since(start))
		rec.wrote(len(val))

		rec.attempted.Add(1)
		start = time.Now()
		mm, err := w.monc.GetMDSMap(ctx)
		if err != nil || mm.Service[key] != val {
			rec.fail("service read %s: not the committed value (%v)", key, err)
		} else {
			reads.add(time.Since(start))
			rec.read(len(val))
		}

		rec.attempted.Add(1)
		body := probeClass(w.opts.seed, i)
		prev := w.watch.minVersion()
		start = time.Now()
		rec.tr.time("mon.commit", func() { err = w.monc.InstallClass(ctx, probeClassName, body, "other") })
		if err == nil {
			err = w.watch.waitAbove(ctx, prev)
		}
		if err != nil {
			rec.fail("class install %d: %v", i, err)
		} else {
			rec.propagate = append(rec.propagate, float64(time.Since(start))/1e6)
			rec.wrote(len(body))
			if rec.traced() {
				rec.tr.add("cp.installs", 1)
			}
		}

		rec.attempted.Add(1)
		loads := balancerLoads(w.rng, balancerRanks)
		var dec mds.Decision
		rec.tr.time("mantle.decide", func() {
			dec, err = w.bal.Decide(ctx, mds.BalancerInput{WhoAmI: 0, Loads: loads, MDSMap: w.mdsMap})
		})
		if err != nil || !sameTargets(dec.Targets, sequencerTargets(loads, 0)) {
			rec.fail("mantle decide %v = %v, want %v (%v)", loads, dec.Targets, sequencerTargets(loads, 0), err)
		}
	}
}

// sequencerTargets is mantle.PolicySequencer's decision in Go: shed the
// excess over the average toward ranks below it, but only when this
// rank is 20% over the average and some rank is 20% under.
func sequencerTargets(loads map[int]float64, me int) map[int]float64 {
	var total float64
	for _, l := range loads {
		total += l
	}
	avg := total / float64(len(loads))
	my := loads[me]
	if my < avg*1.2 {
		return nil
	}
	under := false
	for r, l := range loads {
		if r != me && l < avg*0.8 {
			under = true
		}
	}
	if !under {
		return nil
	}
	out := make(map[int]float64)
	for r, l := range loads {
		if r != me && l < avg {
			if amt := (my - avg) * (avg - l) / avg; amt > 0 {
				out[r] = amt
			}
		}
	}
	return out
}

func sameTargets(got, want map[int]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for r, v := range want {
		if math.Abs(got[r]-v) > 1e-9*math.Max(1, math.Abs(v)) {
			return false
		}
	}
	return true
}

func (w *controlPlane) finish(ctx context.Context, rec *recorder) {
	tr := rec.tr
	if tr == nil {
		return
	}
	rec.set("mon.commit_us", tr.meanUs("mon.commit"))
	rec.set("mantle.decide_us", tr.meanUs("mantle.decide"))
	if commits := float64(tr.count("mon.commit")); commits > 0 {
		rec.set("paxos.msgs_per_commit", outboundCalls(rec.before.wire, rec.after.wire, "mon.")/commits)
	}
	if waves := tr.counter("cp.installs"); waves > 0 {
		rec.set("mon.gossip_msgs_per_wave", outboundCalls(rec.before.wire, rec.after.wire, "osd.")/waves)
	}
	in := mds.BalancerInput{WhoAmI: 0, Loads: balancerLoads(w.rng, balancerRanks), MDSMap: w.mdsMap}
	rec.set("mantle.decide_allocs", allocsPer(200, func(int) { _, _ = w.bal.Decide(ctx, in) }))
}
