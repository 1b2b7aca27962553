package workload

import (
	"strings"
	"testing"
	"time"
)

// TestFaultPlanRetries pins the three-way MaxRetries contract: the zero
// value keeps the default bound, NoRetries (any negative) means drop on
// first loss, and a positive value is taken literally. The zero-value
// case is load-bearing — a plan that only schedules crashes must retry.
func TestFaultPlanRetries(t *testing.T) {
	cases := []struct {
		name string
		set  int
		want int
	}{
		{"zero means default", 0, DefaultMaxRetries},
		{"NoRetries means none", NoRetries, 0},
		{"positive is literal", 7, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := &FaultPlan{MaxRetries: tc.set}
			if got := p.Retries(); got != tc.want {
				t.Fatalf("Retries() = %d, want %d", got, tc.want)
			}
		})
	}
	var nilPlan *FaultPlan
	if got := nilPlan.Retries(); got != DefaultMaxRetries {
		t.Fatalf("nil plan Retries() = %d, want %d", got, DefaultMaxRetries)
	}
}

// TestRetryPolicyDefaults pins the nil-safe accessor defaults and the
// validation boundaries of RetryPolicy.
func TestRetryPolicyDefaults(t *testing.T) {
	var nilPolicy *RetryPolicy
	if nilPolicy.Base() != DefaultRetryBackoffBase || nilPolicy.Cap() != DefaultRetryBackoffCap ||
		nilPolicy.Burst() != DefaultRetryBudgetBurst {
		t.Fatal("nil policy accessors must return the documented defaults")
	}
	if err := nilPolicy.Validate(); err != nil {
		t.Fatalf("nil policy must validate: %v", err)
	}
	good := &RetryPolicy{BackoffBase: time.Second, BackoffCap: 10 * time.Second, Jitter: 0.5, BudgetRatio: 0.1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
	bad := []*RetryPolicy{
		{BackoffBase: -time.Second},
		{BackoffBase: 10 * time.Second, BackoffCap: time.Second},
		{Jitter: 1.5},
		{BudgetRatio: -0.1},
		{BudgetBurst: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad policy %d validated", i)
		}
	}
}

// TestValidateNamesTheField gives one bad value to every field that
// FaultPlan.Validate and RetryPolicy.Validate check: each must fail with
// an error naming the field, the entry's index included.
func TestValidateNamesTheField(t *testing.T) {
	crash := ReplicaCrash{At: time.Second}
	outage := RegionOutage{Start: time.Second, End: 2 * time.Second}
	degrade := Degrade{Start: time.Second, End: 2 * time.Second, Slowdown: 2}
	crashes := func(c ReplicaCrash) []ReplicaCrash { return []ReplicaCrash{crash, crash, c} }
	cases := []struct {
		field string
		plan  FaultPlan
	}{
		{"FaultPlan.Crashes[2].Replica", FaultPlan{Crashes: crashes(ReplicaCrash{Replica: -1})}},
		{"FaultPlan.Crashes[2].At", FaultPlan{Crashes: crashes(ReplicaCrash{At: -time.Second})}},
		{"FaultPlan.Crashes[2].Restart", FaultPlan{Crashes: crashes(ReplicaCrash{At: time.Second, Restart: time.Second})}},
		{"FaultPlan.Outages[1].Start", FaultPlan{Outages: []RegionOutage{outage, {Start: -time.Second, End: time.Second}}}},
		{"FaultPlan.Outages[0].End", FaultPlan{Outages: []RegionOutage{{Start: time.Second, End: time.Second}}}},
		{"FaultPlan.Degrades[0].Replica", FaultPlan{Degrades: []Degrade{{Replica: -1, End: time.Second, Slowdown: 2}}}},
		{"FaultPlan.Degrades[1].Start", FaultPlan{Degrades: []Degrade{degrade, {Start: -time.Second, End: time.Second, Slowdown: 2}}}},
		{"FaultPlan.Degrades[0].End", FaultPlan{Degrades: []Degrade{{Start: time.Second, Slowdown: 2}}}},
		{"FaultPlan.Degrades[0].Slowdown", FaultPlan{Degrades: []Degrade{{End: time.Second, Slowdown: 0.5}}}},
		{"RetryPolicy.BackoffBase", FaultPlan{Retry: &RetryPolicy{BackoffBase: -time.Second}}},
		{"RetryPolicy.BackoffCap", FaultPlan{Retry: &RetryPolicy{BackoffCap: -time.Second}}},
		{"RetryPolicy.BackoffCap", FaultPlan{Retry: &RetryPolicy{BackoffBase: 10 * time.Second, BackoffCap: time.Second}}},
		{"RetryPolicy.Jitter", FaultPlan{Retry: &RetryPolicy{Jitter: 1.5}}},
		{"RetryPolicy.Jitter", FaultPlan{Retry: &RetryPolicy{Jitter: -0.5}}},
		{"RetryPolicy.BudgetRatio", FaultPlan{Retry: &RetryPolicy{BudgetRatio: -0.1}}},
		{"RetryPolicy.BudgetBurst", FaultPlan{Retry: &RetryPolicy{BudgetBurst: -1}}},
	}
	for _, c := range cases {
		err := c.plan.Validate()
		if err == nil || !strings.Contains(err.Error(), c.field+" ") {
			t.Errorf("bad %s: error %v, want one naming the field", c.field, err)
		}
	}
	good := FaultPlan{
		Crashes: []ReplicaCrash{crash}, Outages: []RegionOutage{outage}, Degrades: []Degrade{degrade},
		Retry: &RetryPolicy{Jitter: 1},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}
