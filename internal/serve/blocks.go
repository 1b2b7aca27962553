package serve

import (
	"fmt"
	"math"
)

// blockPool is the engine's vLLM-style paged KV block accounting
// (PagedAttention): numBlocks blocks of blockTokens tokens each. It only
// counts free blocks; each sequence keeps its own holding (seq.kvBlocks,
// the blocks it owns) and passes it to need, canGrow, grow and release.
// The engine checks every growth before it makes it, so growing past
// the free blocks panics.
type blockPool struct {
	blockTokens int
	numBlocks   int
	free        int
}

// newBlockPool returns a pool of numBlocks free blocks of blockTokens
// tokens each. Holdings are int32, so numBlocks may not exceed
// math.MaxInt32.
func newBlockPool(blockTokens, numBlocks int) *blockPool {
	if blockTokens <= 0 || numBlocks < 0 || numBlocks > math.MaxInt32 {
		panic(fmt.Sprintf("serve: bad KV block pool dims block=%d n=%d", blockTokens, numBlocks))
	}
	return &blockPool{blockTokens: blockTokens, numBlocks: numBlocks, free: numBlocks}
}

// need returns the blocks a holding of held blocks needs beyond what it
// holds to cover tokens; need(0, t) is the blocks t tokens take. A
// holding of h blocks covers h*blockTokens tokens, so need divides only
// when the holding has to grow: for h >= 0, ceil(t/blockTokens) <= h
// exactly when t <= h*blockTokens. Most calls, a decode token landing in
// a block the sequence already holds, make no division.
func (p *blockPool) need(held int32, tokens int) int {
	h := int(held)
	if tokens <= h*p.blockTokens {
		return 0
	}
	return (tokens+p.blockTokens-1)/p.blockTokens - h
}

// canGrow reports whether the free blocks cover grow(&held, tokens).
func (p *blockPool) canGrow(held int32, tokens int) bool { return p.need(held, tokens) <= p.free }

// grow raises the holding *held to cover tokens. Growing to fewer tokens
// than the holding covers is a no-op; growing past the free blocks
// panics.
func (p *blockPool) grow(held *int32, tokens int) {
	if n := p.need(*held, tokens); n > 0 {
		if n > p.free {
			panic(overGrow{*held, tokens, p.free})
		}
		p.free -= n
		*held += int32(n)
	}
}

// overGrow is grow's panic value: the holding, the tokens and the free
// blocks of a growth the engine should have checked first.
type overGrow struct {
	held         int32
	tokens, free int
}

func (o overGrow) Error() string {
	return fmt.Sprintf("serve: KV holding of %d blocks grown to %d tokens with %d blocks free", o.held, o.tokens, o.free)
}

// freeTokens returns the token capacity of the free blocks.
func (p *blockPool) freeTokens() int { return p.free * p.blockTokens }

// release returns every block of the holding *held and zeroes it.
func (p *blockPool) release(held *int32) {
	p.free += int(*held)
	*held = 0
}
