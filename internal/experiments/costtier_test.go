package experiments

import (
	"testing"
)

// TestCostTieredBreakEven pins the scenario's headline at quick scale:
// the ownership break-even actually appears in the table. In the
// rare-blip regime (burst 0.1) at commodity cloud pricing, renting
// overflow beats owning the 8th replica on attainment-per-dollar; from
// the calibrated burst up, owning wins at every swept price.
func TestCostTieredBreakEven(t *testing.T) {
	e := DefaultEnv()
	e.Quick = true
	tab, err := CostTiered(Env(e), nil, nil, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Quick grid: 3 bursts x (own + 2 prices).
	if len(tab.Rows) != 9 {
		t.Fatalf("%d rows, want 9", len(tab.Rows))
	}
	// Columns: Deployment, Burst x, $/Mtok, TTFT-SLO %, CloudReq,
	// CloudTok, Cloud $, Owned $, Total $, Att %/$, p99 TTFT ms.
	const attPerDollar = 9
	for i := 0; i < len(tab.Rows); i += 3 {
		own := tab.Rows[i]
		if own[0] != "own-8" {
			t.Fatalf("row %d is %q, want the owned cell first per burst", i, own[0])
		}
		if req := col(t, own, 4); req != 0 {
			t.Fatalf("owned cell %d served %v cloud requests", i, req)
		}
	}
	// Even the rare blip pushes some overflow to the cloud, and every
	// rent row bills real dollars: a tier that never engages would make
	// the whole table a trivial zero column.
	for j := 1; j < 3; j++ {
		if req := col(t, tab.Rows[j], 4); req == 0 {
			t.Fatalf("burst 0.1 row %d: overflow never reached the cloud", j)
		}
		if total := col(t, tab.Rows[j], 8); total <= 0 {
			t.Fatalf("burst 0.1 row %d: billed %v total dollars", j, total)
		}
	}
	// Rare-blip regime: renting at the commodity price wins att-per-$.
	if ownLow, rentLow := col(t, tab.Rows[0], attPerDollar), col(t, tab.Rows[1], attPerDollar); rentLow <= ownLow {
		t.Fatalf("burst 0.1 @ $1/Mtok: rent att/$ %.2f does not beat own %.2f — no regime where owning loses",
			rentLow, ownLow)
	}
	// Calibrated burst and up: owning the 8th replica wins at every price.
	for i := 3; i < len(tab.Rows); i += 3 {
		own := col(t, tab.Rows[i], attPerDollar)
		for j := i + 1; j < i+3; j++ {
			if rent := col(t, tab.Rows[j], attPerDollar); rent >= own {
				t.Fatalf("burst row %d: rent att/$ %.2f >= own %.2f — owning never wins", j, rent, own)
			}
			if req := col(t, tab.Rows[j], 4); req == 0 {
				t.Fatalf("burst row %d: overflow never reached the cloud", j)
			}
		}
	}
}

// TestShedSpillBuyHatches pins the three-way escape-hatch contract at
// quick scale: shedding buys served-attainment but not goodput, spilling
// buys attainment with cloud dollars, and buying out of the admission
// queue recovers the shed goodput at a lower cloud bill than spilling.
func TestShedSpillBuyHatches(t *testing.T) {
	e := DefaultEnv()
	e.Quick = true
	tab, err := ShedSpillBuy(Env(e), nil, 20, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("%d rows, want 4 hatches", len(tab.Rows))
	}
	// Columns: Mode, TTFT-SLO %, Served TTFT-SLO %, Shed, CloudReq,
	// Cloud $, Total $, Goodput tok/s, Ktok/$, p99 TTFT ms.
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
	}
	none, shed, spill, buy := rows["none"], rows["shed"], rows["spill"], rows["buy"]
	if none == nil || shed == nil || spill == nil || buy == nil {
		t.Fatalf("missing hatches in %v", tab.Rows)
	}
	for _, local := range [][]string{none, shed} {
		if req := col(t, local, 4); req != 0 {
			t.Fatalf("cloudless hatch %s served %v cloud requests", local[0], req)
		}
	}
	if col(t, shed, 3) == 0 {
		t.Fatal("shed hatch shed nothing under the burst")
	}
	if col(t, shed, 2) <= col(t, none, 2) {
		t.Fatal("shedding did not raise served attainment over queueing blind")
	}
	if col(t, spill, 4) == 0 || col(t, buy, 4) == 0 {
		t.Fatal("a cloud hatch never reached the cloud")
	}
	if col(t, spill, 1) <= col(t, shed, 1) {
		t.Fatal("spilling did not raise overall attainment over shedding")
	}
	if col(t, buy, 7) <= col(t, shed, 7) {
		t.Fatal("buying did not recover goodput over shedding")
	}
	if col(t, buy, 5) >= col(t, spill, 5) {
		t.Fatal("buying the doomed waiters cost more cloud dollars than spilling everything")
	}
	// The budget knob caps the bill.
	capped, err := ShedSpillBuy(Env(e), []string{"buy"}, 20, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if spent := col(t, capped.Rows[0], 5); spent > 0.5 {
		t.Fatalf("budgeted buy hatch spent %v over the $0.50 cap", spent)
	}
}
