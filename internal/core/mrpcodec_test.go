package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

func TestMRPRoundTrip(t *testing.T) {
	p := &MRPPayload{
		McstID: simnet.MulticastBase + 7, Seq: 1, Total: 3, CtrlIP: 0x0A000001,
		Nodes: []NodeInfo{
			{IP: 0x0A000002, QPN: 2},
			{IP: 0x0A000003, QPN: 0xABCDEF, WVA: 0x1000, WRKey: 99},
		},
	}
	got, err := DecodeMRP(EncodeMRP(p), p.CtrlIP)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("roundtrip:\n got %+v\nwant %+v", got, p)
	}
}

func TestMRPEmptyNodes(t *testing.T) {
	p := &MRPPayload{McstID: simnet.MulticastBase + 1, Total: 1}
	got, err := DecodeMRP(EncodeMRP(p), p.CtrlIP)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Nodes) != 0 {
		t.Fatalf("nodes = %v", got.Nodes)
	}
}

func TestMRPDecodeRejectsCorruption(t *testing.T) {
	p := &MRPPayload{
		McstID: simnet.MulticastBase + 1, Total: 1,
		Nodes: []NodeInfo{{IP: 1, QPN: 2}, {IP: 3, QPN: 4, WVA: 5, WRKey: 6}},
	}
	buf := EncodeMRP(p)
	if _, err := DecodeMRP(buf[:len(buf)-1], 0); err == nil {
		t.Fatal("truncated payload accepted")
	}
	if _, err := DecodeMRP(buf[:5], 0); err == nil {
		t.Fatal("short metadata accepted")
	}
}

// The paper's chunking constant: 183 plain node records must fit a 1500B
// MTU alongside Ethernet/IP/UDP headers.
func TestMRPMaxNodesFitsMTU(t *testing.T) {
	nodes := make([]NodeInfo, MRPMaxNodes)
	for i := range nodes {
		nodes[i] = NodeInfo{IP: simnet.Addr(i + 1), QPN: uint32(i + 2)}
	}
	p := &MRPPayload{McstID: simnet.MulticastBase + 1, Total: 1, Nodes: nodes}
	ipPayload := len(EncodeMRP(p)) + 20 + 8 // + IPv4/UDP
	if ipPayload > 1500 {
		t.Fatalf("183-node MRP packet is %dB of IP payload on a 1500B MTU", ipPayload)
	}
	if ipPayload != 1500 {
		t.Fatalf("183 nodes should exactly fill the MTU, got %dB", ipPayload)
	}
}

// Property: arbitrary payloads round-trip exactly.
func TestMRPRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seq, total uint8, n uint8) bool {
		p := &MRPPayload{
			McstID: simnet.MulticastBase + simnet.Addr(rng.Uint32()%1000),
			Seq:    int(seq), Total: int(total),
			CtrlIP: simnet.Addr(rng.Uint32()),
		}
		for i := 0; i < int(n)%32; i++ {
			node := NodeInfo{IP: simnet.Addr(rng.Uint32()), QPN: rng.Uint32() & 0xFFFFFF}
			if rng.Intn(2) == 0 {
				node.WVA = rng.Uint64()
				node.WRKey = rng.Uint32()
				if node.WVA == 0 && node.WRKey == 0 {
					node.WRKey = 1 // the MR flag encodes "has MR"
				}
			}
			p.Nodes = append(p.Nodes, node)
		}
		got, err := DecodeMRP(EncodeMRP(p), p.CtrlIP)
		if err != nil {
			return false
		}
		if len(p.Nodes) == 0 {
			return len(got.Nodes) == 0 && got.McstID == p.McstID
		}
		return reflect.DeepEqual(got, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeMRP: DecodeMRP never panics, and a payload it accepts
// re-encodes to bytes that decode to the same payload.
func FuzzDecodeMRP(f *testing.F) {
	f.Add(EncodeMRP(&MRPPayload{
		McstID: simnet.MulticastBase + 7, Seq: 1, Total: 3, Epoch: 2,
		Nodes: []NodeInfo{{IP: 2, QPN: 2}, {IP: 3, QPN: 0xABCDEF, WVA: 0x1000, WRKey: 99}},
	}), uint32(0x0A000001))
	f.Add(EncodeMRP(&MRPPayload{McstID: simnet.MulticastBase + 1, Total: 1}), uint32(1))
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 0, 1, 2, 3, 4, 5, 6, 7, 0xFF}, uint32(0))
	f.Fuzz(func(t *testing.T, in []byte, ctrl uint32) {
		p, err := DecodeMRP(in, simnet.Addr(ctrl))
		if err != nil {
			return
		}
		got, err := DecodeMRP(EncodeMRP(p), p.CtrlIP)
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", p, err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("re-encode changed the payload:\n got %+v\nwant %+v", got, p)
		}
	})
}
