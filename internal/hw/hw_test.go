package hw

import "testing"

func TestH200Spec(t *testing.T) {
	g := H200()
	if g.MemBytes != 141*GB {
		t.Fatalf("H200 mem = %d", g.MemBytes)
	}
	if g.HBMBandwidth != 4.8e12 {
		t.Fatalf("H200 bw = %v", g.HBMBandwidth)
	}
	if g.FP8Flops != 1979*TFLOPS {
		t.Fatalf("H200 fp8 = %v", g.FP8Flops)
	}
}

func TestP5enNode(t *testing.T) {
	n := P5enNode()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.NumGPUs != 8 {
		t.Fatalf("p5en gpus = %d", n.NumGPUs)
	}
	if n.Link.LinkBandwidth != 900*GB {
		t.Fatalf("p5en link bw = %v", n.Link.LinkBandwidth)
	}
}

func TestH100NodeSmallerMemory(t *testing.T) {
	if H100().MemBytes >= H200().MemBytes {
		t.Fatal("H100 should have less memory than H200")
	}
	if err := H100Node().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadNodes(t *testing.T) {
	cases := []Node{
		{GPU: H200(), NumGPUs: 0, Link: NVSwitch()},
		{GPU: GPU{}, NumGPUs: 8, Link: NVSwitch()},
		{GPU: H200(), NumGPUs: 8}, // no interconnect
	}
	for i, n := range cases {
		if err := n.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSingleGPUNodeNeedsNoLink(t *testing.T) {
	n := Node{GPU: H200(), NumGPUs: 1}
	if err := n.Validate(); err != nil {
		t.Fatalf("single GPU node should validate: %v", err)
	}
}
