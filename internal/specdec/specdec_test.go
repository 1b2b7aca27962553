package specdec

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSpecValidate(t *testing.T) {
	good := []Spec{{}, {Len: 3, Acceptance: 0.7}, {Len: 1, Acceptance: 0}}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
	bad := []Spec{{Len: -1}, {Len: 2, Acceptance: 1.0}, {Len: 2, Acceptance: -0.1}}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v should fail", s)
		}
	}
}

func TestTokensPerStepClosedForm(t *testing.T) {
	// E = (1 - a^{k+1}) / (1 - a).
	cases := []struct {
		k    int
		a    float64
		want float64
	}{
		{0, 0.9, 1},
		{1, 0.5, 1.5},
		{3, 0.7, (1 - math.Pow(0.7, 4)) / 0.3},
		{4, 0.0, 1}, // nothing accepted: 1 token per step
	}
	for _, c := range cases {
		s := Spec{Len: c.k, Acceptance: c.a}
		if got := s.TokensPerStep(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("k=%d a=%v: got %v, want %v", c.k, c.a, got, c.want)
		}
	}
}

func TestVerifyTokens(t *testing.T) {
	if (Spec{}).VerifyTokensPerSeq() != 1 {
		t.Fatal("plain decoding verifies 1 token")
	}
	if (Spec{Len: 3, Acceptance: 0.5}).VerifyTokensPerSeq() != 4 {
		t.Fatal("k=3 verifies 4 tokens")
	}
}

func TestEnabled(t *testing.T) {
	if (Spec{}).Enabled() {
		t.Fatal("zero spec should be disabled")
	}
	if !(Spec{Len: 2, Acceptance: 0.5}).Enabled() {
		t.Fatal("k=2 should be enabled")
	}
}

func TestQuickTokensPerStepBounds(t *testing.T) {
	f := func(kRaw uint8, aRaw uint8) bool {
		k := int(kRaw) % 16
		a := float64(aRaw%100) / 100
		s := Spec{Len: k, Acceptance: a}
		e := s.TokensPerStep()
		// Always at least 1, at most k+1, monotone in acceptance.
		if e < 1 || e > float64(k)+1 {
			return false
		}
		s2 := Spec{Len: k, Acceptance: a * 0.5}
		return s2.TokensPerStep() <= e+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSwiftKV(t *testing.T) {
	if err := DefaultSwiftKV().Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultSwiftKV().PrefillFactor != 0.5 {
		t.Fatal("default SwiftKV should halve prefill")
	}
	for _, bad := range []SwiftKV{{PrefillFactor: 0}, {PrefillFactor: 1.5}, {PrefillFactor: -1}} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v should fail", bad)
		}
	}
}

func TestStack(t *testing.T) {
	sk := DefaultSwiftKV()
	st := Stack{Spec: Spec{Len: 3, Acceptance: 0.7}, SwiftKV: &sk}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.PrefillFactor() != 0.5 {
		t.Fatal("stack prefill factor wrong")
	}
	if (Stack{}).PrefillFactor() != 1 {
		t.Fatal("empty stack should not change prefill")
	}
	badStack := Stack{Spec: Spec{Len: -1}}
	if err := badStack.Validate(); err == nil {
		t.Fatal("bad spec should fail stack validation")
	}
}
