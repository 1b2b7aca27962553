// Package perf is the analytic cost model of the reproduction's
// performance level. It prices one engine iteration (a batch of prefill
// chunks and decode tokens) under a given parallelism using a roofline
// over the hardware specs in internal/hw:
//
//   - linear-layer GEMMs: compute-bound at large batch, weight-streaming
//     (HBM) bound at small batch; efficiency falls with narrow activations
//     and with narrow TP weight shards,
//   - attention: compute for prefill (O(n*ctx)), KV-cache streaming for
//     decode,
//   - collectives: alpha-beta ring all-reduce (TP) and pairwise
//     all-to-all (SP) over the per-rank volumes of CommVolume, the
//     paper's Table 2, which equal the wire bytes the functional
//     engine counts,
//   - a per-iteration engine overhead (the "vLLM cost" of Figure 15).
//
// Constants are calibrated so the 8xH200 figures of the paper's Figure 12
// come out shape-correct (who wins, and by roughly what factor).
package perf

import (
	"fmt"
	"math"
	"time"

	"repro/internal/hw"
	"repro/internal/model"
)

// Parallelism is an intra-engine parallel configuration. Data parallelism
// is expressed at the cluster level (several engines of World()==1 or
// more), not here.
type Parallelism struct {
	SP int
	TP int
}

// World returns SP*TP, the GPUs the engine spans.
func (p Parallelism) World() int { return p.SP * p.TP }

// Validate reports configuration errors.
func (p Parallelism) Validate() error {
	if p.SP <= 0 || p.TP <= 0 {
		return fmt.Errorf("perf: Parallelism.SP %d and .TP %d must both be positive", p.SP, p.TP)
	}
	return nil
}

// String renders like the paper: "TP=8", "SP=8", "(SP=4,TP=2)".
func (p Parallelism) String() string {
	switch {
	case p.SP == 1 && p.TP == 1:
		return "1GPU"
	case p.SP == 1:
		return fmt.Sprintf("TP=%d", p.TP)
	case p.TP == 1:
		return fmt.Sprintf("SP=%d", p.SP)
	default:
		return fmt.Sprintf("(SP=%d,TP=%d)", p.SP, p.TP)
	}
}

// Params are the calibration constants of the cost model, plus the one
// deployment choice that moves them: the shift configuration's memory
// strategy (OnTheFlySlicing), which sets both the GEMM efficiency and,
// through WeightBytesPerGPU, the KV budget.
type Params struct {
	// GEMMEffMax is the peak achievable fraction of tensor-core flops.
	GEMMEffMax float64
	// GEMMRowsHalf is the activation row count at which GEMM efficiency
	// reaches half of max (small decode batches run far below peak).
	GEMMRowsHalf float64
	// TPShardPenalty is the per-extra-TP-rank efficiency loss from narrow
	// weight shards (why SP prefill beats TP prefill in Figure 12).
	TPShardPenalty float64
	// AttnEff is the achieved flop fraction of prefill attention kernels.
	AttnEff float64
	// MemEff is the achieved fraction of HBM bandwidth for streaming
	// weights and KV cache.
	MemEff float64
	// ActBytes is the wire size of activation elements (BF16 = 2).
	ActBytes float64
	// OverheadBase is the per-iteration engine (scheduler/launch) time of
	// a single-GPU engine.
	OverheadBase time.Duration
	// OverheadPerRank adds engine time per additional GPU in the engine
	// (python-side broadcast and sync).
	OverheadPerRank time.Duration
	// OnTheFlySlicing selects the shift configuration's memory strategy
	// (Section 3.3.2). False (the default, the paper's production choice)
	// loads a separate full-TP copy of the weights, which costs Eq. 1's
	// w/(SP*TP) per GPU. True re-slices the base shards each forward: no
	// extra copy, but every GEMM runs at slicePenalty efficiency (the FP8
	// transpose limitation).
	OnTheFlySlicing bool
	// KVReserve is the fraction of GPU memory held back from the KV cache
	// (activations, CUDA graphs, fragmentation).
	KVReserve float64
}

// DefaultParams returns the calibration used throughout the reproduction.
func DefaultParams() Params {
	return Params{
		GEMMEffMax:      0.50,
		GEMMRowsHalf:    48,
		TPShardPenalty:  0.065,
		AttnEff:         0.35,
		MemEff:          0.70,
		ActBytes:        2,
		OverheadBase:    2 * time.Millisecond,
		OverheadPerRank: 250 * time.Microsecond,
		KVReserve:       0.10,
	}
}

// Batch describes the work of one engine iteration.
type Batch struct {
	// PrefillTokens is the number of new prompt tokens this iteration.
	PrefillTokens int
	// PrefillCtx is the mean context length those tokens attend to.
	PrefillCtx float64
	// DecodeSeqs is the number of sequences decoding one token each.
	DecodeSeqs int
	// DecodeCtx is the mean context length of the decoding sequences.
	DecodeCtx float64
}

// Tokens returns the total batched tokens — Algorithm 2's shift criterion.
func (b Batch) Tokens() int { return b.PrefillTokens + b.DecodeSeqs }

// DefaultShiftThreshold is Algorithm 2's default threshold in batched
// tokens, for the serving engine and the functional engine alike.
const DefaultShiftThreshold = 256

// UsesShift is Algorithm 2's predicate: a batch of tokens runs on the
// shift (full-TP) configuration at or below threshold, and on the base
// (SP, TP) configuration above it.
func UsesShift(tokens, threshold int) bool { return tokens <= threshold }

// Cost is an iteration's time broken into the components of Figure 15.
type Cost struct {
	GEMM      time.Duration // linear layers (the "model" bar)
	Attn      time.Duration
	AllReduce time.Duration
	AllToAll  time.Duration
	Overhead  time.Duration // engine/framework cost
}

// Total returns the iteration latency.
func (c Cost) Total() time.Duration {
	return c.GEMM + c.Attn + c.AllReduce + c.AllToAll + c.Overhead
}

// Add returns the component-wise sum of c and d.
func (c Cost) Add(d Cost) Cost {
	return Cost{
		GEMM:      c.GEMM + d.GEMM,
		Attn:      c.Attn + d.Attn,
		AllReduce: c.AllReduce + d.AllReduce,
		AllToAll:  c.AllToAll + d.AllToAll,
		Overhead:  c.Overhead + d.Overhead,
	}
}

// Times returns the cost of k iterations of c: every component
// multiplied by k, which equals adding c k times.
func (c Cost) Times(k int) Cost {
	n := time.Duration(k)
	return Cost{
		GEMM:      c.GEMM * n,
		Attn:      c.Attn * n,
		AllReduce: c.AllReduce * n,
		AllToAll:  c.AllToAll * n,
		Overhead:  c.Overhead * n,
	}
}

// Scale returns c with every component multiplied by f, each truncated
// to a whole nanosecond on its own.
func (c Cost) Scale(f float64) Cost {
	return Cost{
		GEMM:      time.Duration(float64(c.GEMM) * f),
		Attn:      time.Duration(float64(c.Attn) * f),
		AllReduce: time.Duration(float64(c.AllReduce) * f),
		AllToAll:  time.Duration(float64(c.AllToAll) * f),
		Overhead:  time.Duration(float64(c.Overhead) * f),
	}
}

// CostModel prices iterations of one model on one node.
//
// Node, M and P are fixed after New: New derives the model constants the
// per-iteration pricing reads (flops and weight bytes per token, KV bytes
// per token, ...) from M once, so mutating M or P afterwards would leave
// them stale. Build a new CostModel instead. PrefillFlopsFactor is read
// on every call and may be set at any time.
type CostModel struct {
	Node hw.Node
	M    model.Config
	P    Params

	// PrefillFlopsFactor scales prefill linear flops; SwiftKV's
	// SingleInputKV roughly halves them (internal/specdec sets this).
	PrefillFlopsFactor float64

	// Constants of M, computed once by New. model.Config's methods have
	// value receivers, so calling them per iteration copies the whole
	// struct; the engine prices tens of thousands of iterations per run.
	flopsPerToken        float64 // M.FlopsPerToken()
	weightBytes          float64 // M.WeightBytes()
	activeWeightPerToken float64 // M.ActiveWeightBytesPerToken()
	kvBytesPerToken      float64 // M.KVBytesPerToken()
	isMoE                bool    // M.IsMoE()
	hidden, layers       float64 // float64(M.Hidden), float64(M.Layers)
}

// New returns a cost model with the given calibration.
func New(node hw.Node, m model.Config, p Params) (*CostModel, error) {
	if err := node.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &CostModel{
		Node: node, M: m, P: p, PrefillFlopsFactor: 1,
		flopsPerToken:        m.FlopsPerToken(),
		weightBytes:          m.WeightBytes(),
		activeWeightPerToken: m.ActiveWeightBytesPerToken(),
		kvBytesPerToken:      m.KVBytesPerToken(),
		isMoE:                m.IsMoE(),
		hidden:               float64(m.Hidden),
		layers:               float64(m.Layers),
	}, nil
}

// MustNew is New, panicking on error (for presets known to be valid).
func MustNew(node hw.Node, m model.Config, p Params) *CostModel {
	cm, err := New(node, m, p)
	if err != nil {
		panic(err)
	}
	return cm
}

// slicePenalty multiplies GEMM efficiency under on-the-fly slicing.
const slicePenalty = 0.88

// gemmEff returns the achieved flop fraction for a linear-layer GEMM with
// the given activation rows per rank and TP shard width.
func (cm *CostModel) gemmEff(rowsPerRank float64, tp int) float64 {
	rowFactor := rowsPerRank / (rowsPerRank + cm.P.GEMMRowsHalf)
	shardFactor := 1 / (1 + cm.P.TPShardPenalty*float64(tp-1))
	eff := cm.P.GEMMEffMax * rowFactor * shardFactor
	if cm.P.OnTheFlySlicing {
		eff *= slicePenalty
	}
	return eff
}

// Iter prices one iteration of the batch under the parallelism: IterEP
// without expert parallelism.
func (cm *CostModel) Iter(par Parallelism, b Batch) Cost { return cm.IterEP(par, EPConfig{}, b) }

// base is the batch-size part of an iteration with experts sharded ep
// ways in the weight-streaming term (ep > 1 only for MoE models; see
// IterBase): every component but Attn, which it leaves zero.
func (cm *CostModel) base(par Parallelism, ep int, b Batch) Cost {
	if err := par.Validate(); err != nil {
		panic(err)
	}
	g := cm.Node.GPU
	world := par.World()
	tokens := b.Tokens()
	if tokens == 0 {
		return Cost{Overhead: cm.overhead(world)}
	}

	// Decode padding (Section 3.2.1): SP distributes rows evenly only in
	// multiples of SP; stragglers set the pace, so every rank effectively
	// processes ceil(tokens/SP) rows.
	rowsPerRank := float64(ceilDiv(tokens, par.SP))

	// --- Linear layers (roofline) ---
	flopsPerRank := (cm.prefillFlops(b) + cm.decodeFlops(b)) / float64(par.SP) / float64(par.TP)
	eff := cm.gemmEff(rowsPerRank, par.TP)
	computeTime := flopsPerRank / (g.FP8Flops * eff)
	// Weight streaming: each rank reads its weight shard once per
	// iteration. MoE models read only the routed experts at small batch.
	weightBytes := cm.weightReadBytes(tokens)
	if ep > 1 {
		weightBytes = cm.epWeightReadBytes(tokens, ep)
	}
	memTime := weightBytes / float64(par.TP) / (g.HBMBandwidth * cm.P.MemEff)
	gemm := math.Max(computeTime, memTime)

	// --- Collectives (per layer: 2 ring all-reduces on the TP group, 2
	// all-to-alls on the SP group; Table 2). CommVolume sizes them. The
	// all-to-alls are hidden/TP wide because Algorithm 1 line 3 projects
	// only the rank's TP shard of heads. Each all-reduce takes 2(p-1)
	// latency steps, and so does the pair of all-to-alls.
	var allReduce, allToAll float64
	arElems, a2aElems := commVolume(cm.hidden, cm.M.QHeads, cm.M.KVHeads, par, rowsPerRank)
	if par.TP > 1 {
		allReduce = 2 * cm.layers * cm.pairwise(arElems/2*cm.P.ActBytes, par.TP)
	}
	if par.SP > 1 {
		allToAll = cm.layers * cm.pairwise(a2aElems*cm.P.ActBytes, par.SP)
	}

	return Cost{
		GEMM:      secs(gemm),
		AllReduce: secs(allReduce),
		AllToAll:  secs(allToAll),
		Overhead:  cm.overhead(world),
	}
}

// IterAttn returns the attention part of IterEP's cost, its Attn
// component: head-parallel across all the world's ranks, compute-bound
// for prefill and KV-streaming-bound for decode. It is the only part
// that reads the batch's contexts, so the only part that changes from
// step to step of a steady decode stretch.
func (cm *CostModel) IterAttn(par Parallelism, b Batch) time.Duration {
	if par.SP <= 0 || par.TP <= 0 {
		panic(par.Validate())
	}
	if b.Tokens() == 0 {
		return 0
	}
	g := cm.Node.GPU
	world := par.World()
	attnFlops := 4 * cm.hidden * cm.layers *
		(float64(b.PrefillTokens)*b.PrefillCtx + float64(b.DecodeSeqs)*b.DecodeCtx)
	attnCompute := attnFlops / float64(world) / (g.FP8Flops * cm.P.AttnEff)
	// Decode KV streaming: each decoding sequence reads its full cached
	// context for this rank's heads (replication multiplies the share).
	kvBytes := float64(b.DecodeSeqs) * b.DecodeCtx * cm.kvBytesPerToken * kvShare(cm.M.KVHeads, world)
	attnMem := kvBytes / (g.HBMBandwidth * cm.P.MemEff)
	return secs(math.Max(attnCompute, attnMem))
}

// CommVolume returns the elements one rank puts on the wire per layer
// when par runs a batch of tokens: the two ring all-reduces of its TP
// group (Algorithm 1 lines 8 and 11) and the two Ulysses all-to-alls of
// its SP group (lines 4 and 6). Every rank holds ceil(tokens/SP) rows
// (decode padding, Section 3.2.1). A p-rank ring all-reduce sends
// 2(p-1)/p of its message; a pairwise all-to-all sends all but the
// rank's own 1/p. The first all-to-all carries q plus (replicated) kv
// heads, the second the attention output at q width, both over only the
// h/TP heads of the rank's TP shard (line 3): the DeepSpeed-Ulysses
// per-GPU volume (Jacobs et al., arXiv:2309.14509) over h/TP heads.
func CommVolume(m model.Config, par Parallelism, tokens int) (allReduce, allToAll float64) {
	return commVolume(float64(m.Hidden), m.QHeads, m.KVHeads, par, float64(ceilDiv(tokens, par.SP)))
}

// commVolume is CommVolume given rows = ceil(tokens/SP). base passes
// its precomputed rows and model constants, so pricing copies no
// model.Config and divides no integers twice.
func commVolume(hidden float64, qHeads, kvHeads int, par Parallelism, rows float64) (allReduce, allToAll float64) {
	if par.TP > 1 {
		allReduce = 2 * 2 * rows * hidden * float64(par.TP-1) / float64(par.TP)
	}
	if par.SP > 1 {
		world := par.World()
		qkvFactor := 1 + 2*float64(kvHeads)*kvShare(kvHeads, world)*float64(world)/float64(qHeads)
		x := rows * hidden
		allToAll = (x*qkvFactor + x) * float64(par.SP-1) / float64(par.SP*par.TP)
	}
	return allReduce, allToAll
}

// pairwise is the alpha-beta time of collectives that put wire bytes on
// each rank's link in 2(p-1) latency-bound steps.
func (cm *CostModel) pairwise(wire float64, p int) float64 {
	return wire/cm.Node.Link.LinkBandwidth + 2*float64(p-1)*cm.Node.Link.Latency
}

func (cm *CostModel) prefillFlops(b Batch) float64 {
	f := cm.PrefillFlopsFactor
	if f == 0 {
		f = 1
	}
	return cm.flopsPerToken * float64(b.PrefillTokens) * f
}

func (cm *CostModel) decodeFlops(b Batch) float64 {
	return cm.flopsPerToken * float64(b.DecodeSeqs)
}

// weightReadBytes returns the weight bytes streamed from HBM in one
// iteration: dense models stream everything; MoE models stream only the
// experts the batch activates (approaching all weights at large batch).
func (cm *CostModel) weightReadBytes(tokens int) float64 {
	total := cm.weightBytes
	if !cm.isMoE {
		return total
	}
	activated := cm.activeWeightPerToken * float64(tokens)
	return math.Min(total, activated)
}

// kvShare is the fraction of the model's per-token KV bytes one rank
// holds: 1/world without replication, more when KV heads are replicated
// (world > KVHeads).
func kvShare(kvHeads, world int) float64 {
	if world <= kvHeads {
		return 1 / float64(world)
	}
	return 1 / float64(kvHeads)
}

func (cm *CostModel) overhead(world int) time.Duration {
	return cm.P.OverheadBase + time.Duration(world-1)*cm.P.OverheadPerRank
}

// --- Memory sizing ---

// WeightBytesPerGPU returns the per-GPU weight footprint of an engine:
// w/TP for the base configuration (experts sharded ep ways for an MoE
// model under EP; EPConfig{} means dense), plus Eq. 1's w/(SP*TP) when
// shift says the engine also runs the full-TP shift configuration. The
// shift copy is held only when it is a different sharding (SP > 1) and
// the weights are not sliced on the fly.
func (cm *CostModel) WeightBytesPerGPU(par Parallelism, ep EPConfig, shift bool) float64 {
	base := cm.M.WeightBytes() / float64(par.TP)
	if cm.M.IsMoE() && ep.Enabled() {
		dt := float64(cm.M.WeightDType.Bytes())
		base = (cm.M.SharedParams*dt + cm.M.ExpertParams()*dt/float64(ep.Degree)) / float64(par.TP)
	}
	if shift && par.SP > 1 && !cm.P.OnTheFlySlicing {
		base += cm.M.WeightBytes() / float64(par.World())
	}
	return base
}

// KVCapacityTokens returns how many tokens of KV cache one engine can
// hold across its GPUs after its weights (WeightBytesPerGPU) and the
// reserve: the memory EP frees goes to the KV cache, as does the shift
// copy on-the-fly slicing saves. Returns 0 when the weights do not fit
// at all.
func (cm *CostModel) KVCapacityTokens(par Parallelism, ep EPConfig, shift bool) int {
	gpuBytes := float64(cm.Node.GPU.MemBytes) * (1 - cm.P.KVReserve)
	free := gpuBytes - cm.WeightBytesPerGPU(par, ep, shift)
	if free <= 0 {
		return 0
	}
	perRankTokenBytes := cm.M.KVBytesPerToken() * kvShare(cm.M.KVHeads, par.World())
	return int(free / perRankTokenBytes)
}

// --- Closed-form latency points (Figure 12/13 "minimum latency") ---
// Only tests call these; they are the closed form the engine's measured
// lone-request latency (serve.Result.LoneLatency) is checked against.

// MinTTFT is the time to first token of a lone request with the given
// input length: one prefill iteration with no queueing.
func (cm *CostModel) MinTTFT(par Parallelism, inputTokens int) time.Duration {
	b := Batch{PrefillTokens: inputTokens, PrefillCtx: float64(inputTokens) / 2}
	return cm.Iter(par, b).Total()
}

// MinTPOT is the decode latency of a lone request at the given context.
func (cm *CostModel) MinTPOT(par Parallelism, ctx int) time.Duration {
	b := Batch{DecodeSeqs: 1, DecodeCtx: float64(ctx)}
	return cm.Iter(par, b).Total()
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
