package roce

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/simnet"
)

func TestHeaderRoundTripData(t *testing.T) {
	t.Parallel()
	h := &WireHeader{
		Opcode: OpSendOnly, Src: 0x0A000001, Dst: 0xE0000001,
		DstQP: 0x123456, PSN: 0xABCDEF, AckReq: true,
	}
	buf := make([]byte, MaxHeaderBytes)
	n := EncodeHeader(buf, h)
	got, err := DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, h)
	}
}

func TestHeaderRoundTripWrite(t *testing.T) {
	t.Parallel()
	h := &WireHeader{
		Opcode: OpWriteFirst, Src: 1, Dst: 2, DstQP: 7, PSN: 0,
		HasRETH: true, VA: 0xDEADBEEF00112233, RKey: 42, DMALen: 1 << 20,
	}
	buf := make([]byte, MaxHeaderBytes)
	n := EncodeHeader(buf, h)
	if n != MaxHeaderBytes {
		t.Fatalf("WRITE header %dB, want %d", n, MaxHeaderBytes)
	}
	got, err := DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if *got != *h {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, h)
	}
}

func TestHeaderRoundTripAckNack(t *testing.T) {
	t.Parallel()
	for _, nack := range []bool{false, true} {
		h := &WireHeader{Opcode: OpAcknowledge, Src: 9, Dst: 8, DstQP: 3, PSN: 77, Nack: nack}
		buf := make([]byte, MaxHeaderBytes)
		n := EncodeHeader(buf, h)
		got, err := DecodeHeader(buf[:n])
		if err != nil {
			t.Fatal(err)
		}
		if got.Nack != nack {
			t.Fatalf("nack flag lost (want %v)", nack)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	t.Parallel()
	if _, err := DecodeHeader(make([]byte, 4)); err == nil {
		t.Fatal("short buffer accepted")
	}
	buf := make([]byte, MaxHeaderBytes)
	buf[0] = 0x60 // IPv6 version nibble
	if _, err := DecodeHeader(buf); err == nil {
		t.Fatal("non-IPv4 accepted")
	}
	buf[0] = 0x45
	// UDP port stays zero -> not RoCEv2.
	if _, err := DecodeHeader(buf); err == nil {
		t.Fatal("non-RoCE UDP port accepted")
	}
}

// Property: encode/decode round-trips arbitrary headers, and the PSN on the
// wire combined with ReconstructPSN recovers the virtual PSN.
func TestHeaderRoundTripProperty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	f := func(srcRaw, dstRaw, qpRaw uint32, psnRaw uint64, op uint8) bool {
		ops := []Opcode{OpSendOnly, OpWriteFirst, OpWriteOnly, OpAcknowledge, OpCNP}
		h := &WireHeader{
			Opcode: ops[int(op)%len(ops)],
			Src:    simnet.Addr(srcRaw), Dst: simnet.Addr(dstRaw),
			DstQP: qpRaw & 0xFFFFFF,
			PSN:   WirePSN(psnRaw % (1 << 40)),
		}
		if h.Opcode == OpWriteFirst || h.Opcode == OpWriteOnly {
			h.HasRETH = true
			h.VA = rng.Uint64()
			h.RKey = rng.Uint32()
			h.DMALen = rng.Uint32()
		}
		if h.Opcode == OpAcknowledge {
			h.Nack = rng.Intn(2) == 0
		}
		buf := make([]byte, MaxHeaderBytes)
		n := EncodeHeader(buf, h)
		got, err := DecodeHeader(buf[:n])
		if err != nil {
			return false
		}
		return *got == *h
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHeaderFor(t *testing.T) {
	t.Parallel()
	p := &simnet.Packet{Type: simnet.Data, Src: 1, Dst: 2, DstQP: 9, PSN: PSNSpace + 5,
		WriteVA: 0x100, WriteRKey: 3, Last: true}
	h := HeaderFor(p, 4096)
	if h.Opcode != OpWriteOnly || !h.HasRETH || h.DMALen != 4096 {
		t.Fatalf("WRITE mapping wrong: %+v", h)
	}
	if h.PSN != 5 {
		t.Fatalf("wire PSN %d, want wrapped 5", h.PSN)
	}
	n := HeaderFor(&simnet.Packet{Type: simnet.Nack, PSN: 7}, 0)
	if n.Opcode != OpAcknowledge || !n.Nack {
		t.Fatalf("NACK mapping wrong: %+v", n)
	}
	c := HeaderFor(&simnet.Packet{Type: simnet.CNP}, 0)
	if c.Opcode != OpCNP {
		t.Fatalf("CNP mapping wrong: %+v", c)
	}
}

// TestBridgingPreservesWireValidity: the exact rewrite Cepheus performs on
// a bridged copy (dst, dstQP, src, RETH) must produce a decodable header
// with the receiver's values — the connection-bridging contract of Fig 4.
func TestBridgingPreservesWireValidity(t *testing.T) {
	t.Parallel()
	orig := &simnet.Packet{
		Type: simnet.Data, Src: 0x0A000001, Dst: 0xE0000001, DstQP: 1,
		PSN: 42, WriteVA: 0x1000, WriteRKey: 5,
	}
	bridged := orig.Clone()
	bridged.Dst = 0x0A000002
	bridged.DstQP = 77
	bridged.Src = 0xE0000001
	bridged.WriteVA = 0x2000
	bridged.WriteRKey = 9

	buf := make([]byte, MaxHeaderBytes)
	n := EncodeHeader(buf, HeaderFor(bridged, 8192))
	h, err := DecodeHeader(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if h.Dst != 0x0A000002 || h.DstQP != 77 || h.Src != 0xE0000001 {
		t.Fatalf("bridged addressing lost: %+v", h)
	}
	if h.VA != 0x2000 || h.RKey != 9 {
		t.Fatalf("bridged MR lost: %+v", h)
	}
}

// FuzzDecodeHeader: DecodeHeader never panics, and a header it accepts
// re-encodes to bytes that decode to the same header.
func FuzzDecodeHeader(f *testing.F) {
	buf := make([]byte, MaxHeaderBytes)
	for _, h := range []*WireHeader{
		{Opcode: OpSendOnly, Src: 0x0A000001, Dst: 0xE0000001, DstQP: 0x123456, PSN: 0xABCDEF, AckReq: true},
		{Opcode: OpWriteFirst, Src: 1, Dst: 2, DstQP: 7, HasRETH: true, VA: 0xDEADBEEF, RKey: 42, DMALen: 1 << 20},
		{Opcode: OpAcknowledge, Src: 9, Dst: 8, DstQP: 3, PSN: 77, Nack: true},
		{Opcode: OpCNP, Src: 5, Dst: 6, DstQP: 1},
	} {
		n := EncodeHeader(buf, h)
		f.Add(append([]byte(nil), buf[:n]...))
	}
	f.Add([]byte{0x45})
	f.Fuzz(func(t *testing.T, in []byte) {
		h, err := DecodeHeader(in)
		if err != nil {
			return
		}
		out := make([]byte, MaxHeaderBytes)
		n := EncodeHeader(out, h)
		got, err := DecodeHeader(out[:n])
		if err != nil {
			t.Fatalf("re-encoded %+v does not decode: %v", h, err)
		}
		if *got != *h {
			t.Fatalf("re-encode changed the header:\n got %+v\nwant %+v", got, h)
		}
	})
}
