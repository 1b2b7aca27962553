package kvcache

import (
	"errors"
	"fmt"
	"math"
)

// ErrNoSpace is returned when the allocator cannot satisfy a request;
// the serving engine reacts by queueing or preempting (Section 4.2.2's
// "KV cache becomes full, causing wait times").
var ErrNoSpace = errors.New("kvcache: out of blocks")

// Allocator is a vLLM-style paged KV block allocator. Blocks hold
// BlockTokens tokens each. The allocator only accounts: it keeps the
// free-block count, and each caller keeps its own holding (the blocks
// one sequence owns) and passes it to Grow, CanGrow and Free. Values
// live elsewhere.
//
// A holding of h blocks covers h*BlockTokens tokens, so Grow and CanGrow
// compare tokens with that capacity first and divide (BlocksFor) only
// when the holding has to grow: for h >= 0, ceil(t/B) <= h exactly when
// t <= h*B. Most calls, a decode token landing in a block the sequence
// already holds, make no division.
type Allocator struct {
	BlockTokens int
	NumBlocks   int

	free int
}

// NewAllocator returns an allocator over numBlocks blocks of blockTokens
// tokens each. Holdings are int32, so numBlocks may not exceed
// math.MaxInt32.
func NewAllocator(blockTokens, numBlocks int) *Allocator {
	if blockTokens <= 0 || numBlocks < 0 || numBlocks > math.MaxInt32 {
		panic(fmt.Sprintf("kvcache: bad allocator dims block=%d n=%d", blockTokens, numBlocks))
	}
	return &Allocator{BlockTokens: blockTokens, NumBlocks: numBlocks, free: numBlocks}
}

// BlocksFor returns the number of blocks needed to hold tokens.
func (a *Allocator) BlocksFor(tokens int) int {
	if tokens <= 0 {
		return 0
	}
	return (tokens + a.BlockTokens - 1) / a.BlockTokens
}

// FreeBlocks returns the number of unallocated blocks.
func (a *Allocator) FreeBlocks() int { return a.free }

// UsedBlocks returns the number of allocated blocks. Only tests call
// it: it is the leak check of the serving engine's KV accounting (no
// block may stay held once an engine drains or crashes).
func (a *Allocator) UsedBlocks() int { return a.NumBlocks - a.free }

// FreeTokens returns the token capacity of the free blocks.
func (a *Allocator) FreeTokens() int { return a.free * a.BlockTokens }

// Grow raises the holding *held to cover tokens total tokens. It is
// idempotent: growing to a smaller count is a no-op. Returns ErrNoSpace
// (allocating nothing) if the growth cannot be satisfied.
func (a *Allocator) Grow(held *int32, tokens int) error {
	h := int(*held)
	if tokens <= h*a.BlockTokens {
		return nil
	}
	need := a.BlocksFor(tokens) - h
	if need > a.free {
		return ErrNoSpace
	}
	a.free -= need
	*held += int32(need)
	return nil
}

// CanGrow reports whether Grow(&held, tokens) would succeed.
func (a *Allocator) CanGrow(held int32, tokens int) bool {
	h := int(held)
	return tokens <= h*a.BlockTokens || a.BlocksFor(tokens)-h <= a.free
}

// Free returns every block of the holding *held and zeroes it.
func (a *Allocator) Free(held *int32) {
	a.free += int(*held)
	*held = 0
}

// CheckInvariant verifies conservation: held, the caller's sum over
// every holding it has grown, plus the free blocks make up the whole
// cache. The serving engine's tests call it after every scheduling step.
func (a *Allocator) CheckInvariant(held int) error {
	if held < 0 || held+a.free != a.NumBlocks {
		return fmt.Errorf("kvcache: leak: held %d + free %d != total %d", held, a.free, a.NumBlocks)
	}
	return nil
}
