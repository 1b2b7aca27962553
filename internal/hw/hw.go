// Package hw describes the hardware the paper evaluates on: GPUs, their
// memory systems, and the intra-node interconnect. The analytic cost model
// in internal/perf consumes these specs; nothing in this package measures
// real hardware.
package hw

import "fmt"

// GPU describes a single accelerator.
type GPU struct {
	Name string
	// MemBytes is the total HBM capacity.
	MemBytes int64
	// HBMBandwidth is the memory bandwidth in bytes/second.
	HBMBandwidth float64
	// FP8Flops is peak dense FP8 tensor-core throughput in flop/s.
	FP8Flops float64
	// FP16Flops is peak dense FP16 tensor-core throughput in flop/s.
	FP16Flops float64
}

// Interconnect is an alpha-beta model of the intra-node GPU fabric.
type Interconnect struct {
	Name string
	// LinkBandwidth is per-GPU injection bandwidth in bytes/second.
	LinkBandwidth float64
	// Latency is the per-hop latency (alpha term) in seconds.
	Latency float64
}

// Node is a multi-GPU server.
type Node struct {
	GPU     GPU
	NumGPUs int
	Link    Interconnect
}

// Validate reports configuration errors.
func (n Node) Validate() error {
	if n.NumGPUs <= 0 {
		return fmt.Errorf("hw: node needs at least 1 GPU, got %d", n.NumGPUs)
	}
	if n.GPU.MemBytes <= 0 || n.GPU.HBMBandwidth <= 0 || n.GPU.FP8Flops <= 0 {
		return fmt.Errorf("hw: incomplete GPU spec %+v", n.GPU)
	}
	if n.NumGPUs > 1 && n.Link.LinkBandwidth <= 0 {
		return fmt.Errorf("hw: multi-GPU node needs interconnect bandwidth")
	}
	return nil
}

const (
	// GB is 10^9 bytes, matching GPU marketing units used in the paper
	// ("141 GB memory", "900 GB/s").
	GB = 1e9
	// TFLOPS is 10^12 flop/s.
	TFLOPS = 1e12
)

// H200 is the NVIDIA H200 SXM used in the paper's main evaluation:
// 141 GB HBM3e at 4.8 TB/s, 1979 dense FP8 TFLOPS.
func H200() GPU {
	return GPU{
		Name:         "H200",
		MemBytes:     141 * GB,
		HBMBandwidth: 4.8e12,
		FP8Flops:     1979 * TFLOPS,
		FP16Flops:    989 * TFLOPS,
	}
}

// H100 is the NVIDIA H100 SXM used in the paper's Figure 15 breakdown:
// 80 GB HBM3 at 3.35 TB/s, same tensor-core rates as H200.
func H100() GPU {
	return GPU{
		Name:         "H100",
		MemBytes:     80 * GB,
		HBMBandwidth: 3.35e12,
		FP8Flops:     1979 * TFLOPS,
		FP16Flops:    989 * TFLOPS,
	}
}

// NVSwitch is the fourth-generation NVLink switch fabric: 900 GB/s rated
// per-GPU bandwidth. The latency term reflects an NCCL ring hop.
func NVSwitch() Interconnect {
	return Interconnect{
		Name:          "NVSwitch",
		LinkBandwidth: 900 * GB,
		Latency:       1.5e-6,
	}
}

// P5enNode is the AWS p5en.48xlarge instance from Section 4.1.1:
// 8 x H200 over NVSwitch.
func P5enNode() Node {
	return Node{GPU: H200(), NumGPUs: 8, Link: NVSwitch()}
}

// H100Node is an 8 x H100 NVSwitch node (used for Figure 15).
func H100Node() Node {
	return Node{GPU: H100(), NumGPUs: 8, Link: NVSwitch()}
}
