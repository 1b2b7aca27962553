// Package specdec models the production-stack accelerations the paper
// composes with Shift Parallelism in Section 4.5: speculative decoding
// (draft-and-verify with an acceptance-rate geometric yield) and SwiftKV
// (SingleInputKV prefill compute reduction). Both are analytic
// first-order models: they change the token yield and flop count of
// engine iterations priced by internal/perf.
package specdec

import "fmt"

// Spec describes a speculative decoding configuration.
type Spec struct {
	// Len is the draft length k (tokens proposed per step).
	Len int
	// Acceptance is the per-token probability a drafted token is accepted.
	Acceptance float64
}

// Validate reports configuration errors.
func (s Spec) Validate() error {
	if s.Len < 0 {
		return fmt.Errorf("specdec: Spec.Len %d is negative", s.Len)
	}
	if s.Acceptance < 0 || s.Acceptance >= 1 {
		return fmt.Errorf("specdec: Spec.Acceptance %v is outside [0, 1)", s.Acceptance)
	}
	return nil
}

// Enabled reports whether speculation is active.
func (s Spec) Enabled() bool { return s.Len > 0 }

// TokensPerStep returns the expected output tokens per decode step:
// E = sum_{i=0..k} a^i = (1 - a^{k+1}) / (1 - a), counting the bonus
// token from the verifier. With k=0 this is exactly 1 (plain decoding).
func (s Spec) TokensPerStep() float64 {
	if s.Len == 0 {
		return 1
	}
	e := 0.0
	p := 1.0
	for i := 0; i <= s.Len; i++ {
		e += p
		p *= s.Acceptance
	}
	return e
}

// VerifyTokensPerSeq returns the tokens the target model processes per
// decoding sequence per step (k drafts + 1 bonus position).
func (s Spec) VerifyTokensPerSeq() int {
	if s.Len == 0 {
		return 1
	}
	return s.Len + 1
}

// SwiftKV models the SwiftKV (SingleInputKV) transformation: prefill
// computes KV for later layers from an earlier layer's output, roughly
// halving prefill flops while leaving decode unchanged.
type SwiftKV struct {
	// PrefillFactor multiplies prefill linear flops (paper reports ~50%
	// prefill compute reduction; 0.5 is the model default).
	PrefillFactor float64
}

// DefaultSwiftKV returns the 50% prefill-compute configuration.
func DefaultSwiftKV() SwiftKV { return SwiftKV{PrefillFactor: 0.5} }

// Validate reports configuration errors.
func (s SwiftKV) Validate() error {
	if s.PrefillFactor <= 0 || s.PrefillFactor > 1 {
		return fmt.Errorf("specdec: SwiftKV.PrefillFactor %v is outside (0, 1]", s.PrefillFactor)
	}
	return nil
}

// Stack is the production composition of Figure 16: Shift Parallelism +
// SwiftKV + speculative decoding.
type Stack struct {
	Spec    Spec
	SwiftKV *SwiftKV // nil disables
}

// Validate reports configuration errors.
func (st Stack) Validate() error {
	if err := st.Spec.Validate(); err != nil {
		return err
	}
	if st.SwiftKV != nil {
		return st.SwiftKV.Validate()
	}
	return nil
}

// PrefillFactor returns the prefill flop multiplier of the stack.
func (st Stack) PrefillFactor() float64 {
	if st.SwiftKV == nil {
		return 1
	}
	return st.SwiftKV.PrefillFactor
}
