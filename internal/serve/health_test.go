package serve

import (
	"testing"
	"time"

	"repro/internal/perf"
)

// healthFleet spawns n active replicas with the health tier armed,
// ready for direct probe/crash driving.
func healthFleet(t *testing.T, n int) *fleetState {
	t.Helper()
	cm := llamaCM(t)
	f := &fleetState{name: "health"}
	for i := 0; i < n; i++ {
		if err := f.spawn(Config{CM: cm, Par: perf.Parallelism{SP: 1, TP: 1}}, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// eject drives rep dark through probe sweeps until the threshold
// ejects it, returning the ejection time.
func eject(t *testing.T, f *fleetState, rep *replica, from time.Duration) time.Duration {
	t.Helper()
	now := from
	for i := 0; i < DefaultFailThreshold; i++ {
		now += DefaultProbeInterval
		f.probeAll(now)
	}
	if !rep.ejected {
		t.Fatalf("replica not ejected after %d failed probes", DefaultFailThreshold)
	}
	return now
}

// TestProbeDuringCooldownNotReadmitted pins the readmission gate: a
// recovered machine probed healthy before its cooldown elapsed stays
// out of the routing set, and rejoins on the first sweep at or after
// ejectedAt+Cooldown.
func TestProbeDuringCooldownNotReadmitted(t *testing.T) {
	f := healthFleet(t, 2)
	rep := f.replicas[0]
	restart := 8 * time.Second
	f.crashReplica(rep, time.Second, restart)
	ejectedAt := eject(t, f, rep, time.Second)

	// The machine comes back at 8s; every healthy probe before
	// ejectedAt+Cooldown must leave it ejected.
	for now := restart; now < ejectedAt+DefaultHealthCooldown; now += DefaultProbeInterval {
		f.probeAll(now)
		if rep.down {
			t.Fatalf("machine still down at %v despite restart at %v", now, restart)
		}
		if !rep.ejected {
			t.Fatalf("readmitted at %v, %v before the cooldown expired",
				now, ejectedAt+DefaultHealthCooldown-now)
		}
	}
	if f.readmissions != 0 {
		t.Fatalf("readmissions = %d during cooldown, want 0", f.readmissions)
	}
	f.probeAll(ejectedAt + DefaultHealthCooldown)
	if rep.ejected || f.readmissions != 1 {
		t.Fatalf("probe at cooldown expiry: ejected=%v readmissions=%d, want false/1",
			rep.ejected, f.readmissions)
	}
	if !rep.routable() {
		t.Fatal("readmitted replica not routable")
	}
}

// TestCrashAlreadyDownOrRetiredNoops pins crashReplica's guard: a
// second crash of a dark replica (the ejected case included) and a
// crash of a retired replica are both no-ops — no double-counted
// crashes, no re-drained work.
func TestCrashAlreadyDownOrRetiredNoops(t *testing.T) {
	f := healthFleet(t, 3)
	rep := f.replicas[0]
	f.crashReplica(rep, time.Second, 0)
	eject(t, f, rep, time.Second)
	if f.crashCount != 1 {
		t.Fatalf("crashCount = %d after one crash, want 1", f.crashCount)
	}
	if lost := f.crashReplica(rep, 6*time.Second, 0); lost != nil {
		t.Fatalf("crashing an already-ejected replica dislodged %d requests", len(lost))
	}
	if f.crashCount != 1 || f.ejections != 1 {
		t.Fatalf("crash/ejection counters moved on the no-op: %d/%d", f.crashCount, f.ejections)
	}

	retired := f.replicas[1]
	retired.state = replicaRetired
	if lost := f.crashReplica(retired, 6*time.Second, 0); lost != nil {
		t.Fatalf("crashing a retired replica dislodged %d requests", len(lost))
	}
	if f.crashCount != 1 {
		t.Fatalf("crashCount = %d after retired no-op, want 1", f.crashCount)
	}
}

// TestRelevelWithNoIncumbents pins relevel's empty-fleet guard: a
// replica readmitted into a fleet with no other routable incumbent
// keeps its handicap — there is nothing to level against.
func TestRelevelWithNoIncumbents(t *testing.T) {
	f := healthFleet(t, 1)
	rep := f.replicas[0]
	rep.assignedTokens, rep.assignedReqs = 500, 5
	rep.tokenHandicap = 7
	f.relevel(rep)
	if rep.tokenHandicap != 7 {
		t.Fatalf("relevel with no incumbents moved the handicap to %d", rep.tokenHandicap)
	}

	// Same guard through the real readmission path: the sole replica
	// crashes, recovers, and rejoins an otherwise-empty fleet.
	restart := 20 * time.Second // past ejection and past the cooldown
	f.crashReplica(rep, time.Second, restart)
	eject(t, f, rep, time.Second)
	f.probeAll(restart)
	if rep.ejected {
		t.Fatal("sole replica never readmitted")
	}
	if rep.tokenHandicap != 7 {
		t.Fatalf("empty-fleet readmission releveled the handicap to %d", rep.tokenHandicap)
	}
}
