package workload

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tensor"
)

func TestTraceValidate(t *testing.T) {
	good := &Trace{Name: "g", Requests: []Request{
		{Arrival: 0, InputTokens: 10, OutputTokens: 1},
		{Arrival: time.Second, InputTokens: 10, OutputTokens: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	unordered := &Trace{Name: "u", Requests: []Request{
		{Arrival: time.Second, InputTokens: 10, OutputTokens: 1},
		{Arrival: 0, InputTokens: 10, OutputTokens: 1},
	}}
	if err := unordered.Validate(); err == nil {
		t.Fatal("expected ordering error")
	}
	zero := &Trace{Name: "z", Requests: []Request{{InputTokens: 0, OutputTokens: 1}}}
	if err := zero.Validate(); err == nil {
		t.Fatal("expected size error")
	}
	for _, at := range []time.Duration{-time.Nanosecond, -time.Second} {
		negative := &Trace{Name: "n", Requests: []Request{{Arrival: at, InputTokens: 10, OutputTokens: 1}}}
		if err := negative.Validate(); err == nil || !strings.Contains(err.Error(), "Requests[0].Arrival") {
			t.Fatalf("arrival %v: got %v, want an error naming Requests[0].Arrival", at, err)
		}
	}
}

func TestTraceAggregates(t *testing.T) {
	tr := &Trace{Requests: []Request{
		{Arrival: 0, InputTokens: 100, OutputTokens: 10},
		{Arrival: 10 * time.Second, InputTokens: 200, OutputTokens: 30},
	}}
	if tr.TotalTokens() != 340 {
		t.Fatalf("total = %d", tr.TotalTokens())
	}
	if tr.Duration() != 10*time.Second {
		t.Fatalf("duration = %v", tr.Duration())
	}
	if got := tr.OfferedRate(); got != 34 {
		t.Fatalf("offered = %v", got)
	}
}

func TestEmptyTraceSafe(t *testing.T) {
	tr := &Trace{}
	if tr.Duration() != 0 || tr.TotalTokens() != 0 || tr.OfferedRate() != 0 {
		t.Fatal("empty trace aggregates should be zero")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonRateAndOrdering(t *testing.T) {
	rng := tensor.NewRNG(1)
	tr := Poisson("p", rng, 10, 100*time.Second, FixedSize{In: 100, Out: 10}, "x")
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	n := len(tr.Requests)
	// Expect ~1000 arrivals; Poisson sd ~ 32.
	if n < 850 || n > 1150 {
		t.Fatalf("poisson arrivals = %d, want ~1000", n)
	}
	for i, r := range tr.Requests {
		if r.ID != i {
			t.Fatal("IDs not sequential")
		}
		if r.Class != "x" {
			t.Fatal("class not set")
		}
	}
}

func TestPoissonDeterministicPerSeed(t *testing.T) {
	a := Poisson("a", tensor.NewRNG(7), 5, 10*time.Second, FixedSize{In: 10, Out: 1}, "")
	b := Poisson("b", tensor.NewRNG(7), 5, 10*time.Second, FixedSize{In: 10, Out: 1}, "")
	if len(a.Requests) != len(b.Requests) {
		t.Fatal("same seed, different traces")
	}
	for i := range a.Requests {
		if a.Requests[i].Arrival != b.Requests[i].Arrival {
			t.Fatal("same seed, different arrivals")
		}
	}
}

func TestBurstWindow(t *testing.T) {
	rng := tensor.NewRNG(2)
	tr := Burst("b", rng, 50, time.Minute, 10*time.Second, FixedSize{In: 10, Out: 1}, "burst")
	if len(tr.Requests) != 50 {
		t.Fatalf("n = %d", len(tr.Requests))
	}
	for _, r := range tr.Requests {
		if r.Arrival < time.Minute || r.Arrival >= time.Minute+10*time.Second {
			t.Fatalf("arrival %v outside window", r.Arrival)
		}
	}
}

func TestBatchedArrivals(t *testing.T) {
	rng := tensor.NewRNG(3)
	tr := BatchedArrivals("m", rng, 9, 3*time.Second, 30*time.Second, FixedSize{In: 10, Out: 1}, "conv")
	if len(tr.Requests) != 90 {
		t.Fatalf("n = %d, want 90", len(tr.Requests))
	}
	// First nine arrive at exactly t=0.
	for i := 0; i < 9; i++ {
		if tr.Requests[i].Arrival != 0 {
			t.Fatal("first group not at t=0")
		}
	}
}

func TestClosedAndSingle(t *testing.T) {
	c := Closed("c", 5, 100, 10)
	if len(c.Requests) != 5 || c.Duration() != 0 {
		t.Fatal("closed trace wrong")
	}
	s := Single(4096, 250)
	if len(s.Requests) != 1 || s.Requests[0].InputTokens != 4096 {
		t.Fatal("single trace wrong")
	}
}

func TestMergeInterleavesAndRenumbers(t *testing.T) {
	a := &Trace{Requests: []Request{{Arrival: 0, InputTokens: 1, OutputTokens: 1}, {Arrival: 2 * time.Second, InputTokens: 1, OutputTokens: 1}}}
	b := &Trace{Requests: []Request{{Arrival: time.Second, InputTokens: 1, OutputTokens: 1}}}
	m := Merge("m", a, b)
	if len(m.Requests) != 3 {
		t.Fatal("merge lost requests")
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Requests[1].Arrival != time.Second {
		t.Fatal("merge did not interleave by time")
	}

	// Tied arrivals keep their input order: earlier traces first, and
	// each trace's own order within it.
	c := &Trace{Requests: []Request{
		{Arrival: time.Second, InputTokens: 10, OutputTokens: 1},
		{Arrival: time.Second, InputTokens: 11, OutputTokens: 1},
	}}
	d := &Trace{Requests: []Request{
		{Arrival: 0, InputTokens: 20, OutputTokens: 1},
		{Arrival: time.Second, InputTokens: 21, OutputTokens: 1},
	}}
	m = Merge("tied", c, d)
	var got []int
	for i, r := range m.Requests {
		if r.ID != i {
			t.Fatalf("request %d numbered %d", i, r.ID)
		}
		got = append(got, r.InputTokens)
	}
	if want := []int{20, 10, 11, 21}; !slices.Equal(got, want) {
		t.Fatalf("tied merge order %v, want %v", got, want)
	}
}

func TestLognormalSizeBounds(t *testing.T) {
	rng := tensor.NewRNG(4)
	d := LognormalSize{MedianIn: 1000, SigmaIn: 1.5, MinIn: 100, MaxIn: 5000,
		MedianOut: 50, SigmaOut: 1.5, MinOut: 5, MaxOut: 200}
	for i := 0; i < 5000; i++ {
		in, out := d.Sample(rng)
		if in < 100 || in > 5000 || out < 5 || out > 200 {
			t.Fatalf("sample (%d, %d) out of bounds", in, out)
		}
	}
}

func TestLognormalMedianApprox(t *testing.T) {
	rng := tensor.NewRNG(5)
	d := LognormalSize{MedianIn: 2000, SigmaIn: 0.5, MedianOut: 100, SigmaOut: 0.5}
	var ins []int
	for i := 0; i < 20001; i++ {
		in, _ := d.Sample(rng)
		ins = append(ins, in)
	}
	// Crude median check.
	sum := 0
	for _, v := range ins {
		if v <= 2000 {
			sum++
		}
	}
	frac := float64(sum) / float64(len(ins))
	if math.Abs(frac-0.5) > 0.03 {
		t.Fatalf("fraction below median = %v", frac)
	}
}

func TestMixtureClasses(t *testing.T) {
	rng := tensor.NewRNG(6)
	m := Mixture{
		Dists:   []SizeDist{FixedSize{In: 10, Out: 1}, FixedSize{In: 1000, Out: 100}},
		Weights: []float64{0.5, 0.5},
		Classes: []string{"small", "large"},
	}
	seen := map[string]int{}
	for i := 0; i < 1000; i++ {
		in, _, class := m.SampleClass(rng)
		seen[class]++
		if class == "small" && in != 10 {
			t.Fatal("class/size mismatch")
		}
	}
	if seen["small"] < 350 || seen["large"] < 350 {
		t.Fatalf("mixture skew: %v", seen)
	}
}

func TestQuickGeneratorsProduceValidTraces(t *testing.T) {
	f := func(seed uint64, rateRaw, groupRaw uint8) bool {
		rng := tensor.NewRNG(seed)
		rate := 0.5 + float64(rateRaw%20)
		tr := Poisson("p", rng, rate, 20*time.Second, FixedSize{In: 10, Out: 2}, "")
		if tr.Validate() != nil {
			return false
		}
		g := 1 + int(groupRaw)%10
		tr2 := BatchedArrivals("b", rng, g, time.Second, 10*time.Second, FixedSize{In: 5, Out: 5}, "")
		return tr2.Validate() == nil && len(tr2.Requests) == g*10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUrgentWindow(t *testing.T) {
	r := Request{Arrival: time.Second, SLO: Deadline(time.Second, 0)}
	for now, want := range map[time.Duration]bool{
		time.Second:                      false, // just arrived
		1400 * time.Millisecond:          false, // under half the budget
		1500 * time.Millisecond:          true,  // half the budget burned
		2*time.Second - time.Millisecond: true,  // still winnable
		2 * time.Second:                  false, // at the deadline: any later token misses
		2*time.Second + time.Millisecond: false, // missed: no longer winnable
	} {
		if got := r.Urgent(now); got != want {
			t.Errorf("Urgent at %v = %v, want %v", now, got, want)
		}
	}
	if (Request{SLO: Deadline(0, 0)}).Urgent(time.Hour) {
		t.Error("zero deadline must never be urgent")
	}
	if (Request{SLO: Deadline(0, 0)}).Urgent(0) {
		t.Error("zero deadline must not be urgent at the arrival instant")
	}
	if (Request{SLO: Deadline(NoDeadline, 0)}).Urgent(time.Hour) {
		t.Error("NoDeadline must never be urgent")
	}
	if (Request{}).Urgent(time.Hour) {
		t.Error("nil SLO must never be urgent")
	}
}
