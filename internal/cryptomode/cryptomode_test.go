package cryptomode

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"videoapp/internal/bitio"
	"videoapp/internal/codec"
	"videoapp/internal/core"
	"videoapp/internal/synth"
)

func testKeyIV(seed int64) (key, iv []byte, rng *rand.Rand) {
	rng = rand.New(rand.NewSource(seed))
	key = make([]byte, 16)
	iv = make([]byte, BlockSize)
	rng.Read(key)
	rng.Read(iv)
	return
}

func TestEncryptDecryptRoundTripAllModes(t *testing.T) {
	key, iv, rng := testKeyIV(1)
	plain := make([]byte, 512)
	rng.Read(plain)
	for _, m := range Modes {
		ct, err := Encrypt(m, key, iv, plain)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if bytes.Equal(ct, plain) {
			t.Fatalf("%v: ciphertext equals plaintext", m)
		}
		pt, err := Decrypt(m, key, iv, ct)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !bytes.Equal(pt, plain) {
			t.Fatalf("%v: round trip failed", m)
		}
	}
}

func TestStreamModesArbitraryLength(t *testing.T) {
	key, iv, rng := testKeyIV(2)
	for _, n := range []int{1, 15, 17, 100} {
		plain := make([]byte, n)
		rng.Read(plain)
		for _, m := range []Mode{OFB, CTR} {
			ct, err := Encrypt(m, key, iv, plain)
			if err != nil {
				t.Fatalf("%v len %d: %v", m, n, err)
			}
			pt, _ := Decrypt(m, key, iv, ct)
			if !bytes.Equal(pt, plain) {
				t.Fatalf("%v len %d: round trip", m, n)
			}
		}
	}
}

func TestBlockModesRejectPartialBlocks(t *testing.T) {
	key, iv, _ := testKeyIV(3)
	for _, m := range []Mode{ECB, CBC} {
		if _, err := Encrypt(m, key, iv, make([]byte, 17)); err == nil {
			t.Fatalf("%v must reject partial blocks", m)
		}
	}
}

func TestBadIVRejected(t *testing.T) {
	key, _, _ := testKeyIV(4)
	for _, m := range []Mode{CBC, OFB, CTR} {
		if _, err := Encrypt(m, key, []byte{1, 2}, make([]byte, 32)); err == nil {
			t.Fatalf("%v must reject short IV", m)
		}
	}
}

func TestECBLeaksDuplicates(t *testing.T) {
	// The textbook ECB failure: identical plaintext blocks yield identical
	// ciphertext blocks.
	key, _, _ := testKeyIV(5)
	plain := bytes.Repeat([]byte{0xAB}, 64) // 4 identical blocks
	ct, err := Encrypt(ECB, key, nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ct[0:16], ct[16:32]) {
		t.Fatal("ECB must map equal blocks to equal ciphertext")
	}
}

func TestCBCErrorPropagatesOneBlockPlusOneBit(t *testing.T) {
	key, iv, rng := testKeyIV(6)
	plain := make([]byte, 160)
	rng.Read(plain)
	ct, _ := Encrypt(CBC, key, iv, plain)
	bitio.FlipBit(ct, 5) // flip in block 0
	dec, _ := Decrypt(CBC, key, iv, ct)
	// Block 0 garbled, block 1 has exactly one flipped bit, rest intact.
	if bytes.Equal(dec[0:16], plain[0:16]) {
		t.Fatal("block 0 must be garbled")
	}
	diffBits := 0
	for i := 16; i < 32; i++ {
		for x := dec[i] ^ plain[i]; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("block 1 has %d damaged bits, want exactly 1", diffBits)
	}
	if !bytes.Equal(dec[32:], plain[32:]) {
		t.Fatal("blocks 2+ must be intact")
	}
}

func TestOFBCTRSingleBitLocality(t *testing.T) {
	// Requirement 3: a ciphertext flip damages exactly that plaintext bit.
	key, iv, rng := testKeyIV(7)
	plain := make([]byte, 256)
	rng.Read(plain)
	for _, m := range []Mode{OFB, CTR} {
		ct, _ := Encrypt(m, key, iv, plain)
		bitio.FlipBit(ct, 777)
		dec, _ := Decrypt(m, key, iv, ct)
		for i := range dec {
			want := plain[i]
			if int64(i) == 777/8 {
				want ^= 1 << (7 - uint(777%8))
			}
			if dec[i] != want {
				t.Fatalf("%v: byte %d damaged beyond the flipped bit", m, i)
			}
		}
	}
}

func TestAssessVerdictsMatchPaper(t *testing.T) {
	// The §5.2 conclusion: ECB fails req 1; CBC fails 2 and 3; OFB and CTR
	// meet all requirements.
	rng := rand.New(rand.NewSource(8))
	verdicts := map[Mode][3]bool{}
	for _, m := range Modes {
		a, err := Assess(m, rng)
		if err != nil {
			t.Fatal(err)
		}
		verdicts[m] = [3]bool{a.ConfidentialityOK, a.ErrorContainmentOK, a.ApproximationOK}
		t.Logf("%v: leak=%.2f dmgBits=%.1f dmgBlocks=%d", m, a.DuplicateLeakRatio, a.AvgDamagedBits, a.MaxDamagedBlocks)
	}
	if v := verdicts[ECB]; v[0] || !v[1] {
		t.Fatalf("ECB verdicts %v: must fail confidentiality only", verdicts[ECB])
	}
	if v := verdicts[CBC]; !v[0] || v[1] || v[2] {
		t.Fatalf("CBC verdicts %v, want confidentiality only", verdicts[CBC])
	}
	for _, m := range []Mode{OFB, CTR} {
		if v := verdicts[m]; !(v[0] && v[1] && v[2]) {
			t.Fatalf("%v verdicts %v, want all OK", m, verdicts[m])
		}
	}
}

func TestDeriveStreamIVDistinct(t *testing.T) {
	master := []byte("master-seed-0001")
	a := DeriveStreamIV(master, "BCH-6")
	b := DeriveStreamIV(master, "BCH-7")
	if bytes.Equal(a, b) {
		t.Fatal("different streams must get different IVs")
	}
	if len(a) != BlockSize {
		t.Fatal("IV length")
	}
	if !bytes.Equal(a, DeriveStreamIV(master, "BCH-6")) {
		t.Fatal("derivation must be deterministic")
	}
}

func buildStreams(t *testing.T) (*codec.Video, *core.StreamSet, []core.FramePartition) {
	t.Helper()
	cfg, _ := synth.PresetByName("crew_like")
	seq := synth.Generate(cfg.ScaleTo(64, 48, 6))
	p := codec.DefaultParams()
	p.GOPSize = 6
	p.SearchRange = 8
	v, err := codec.EncodeParallelContext(context.Background(), seq, p, 1)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.AnalyzeContext(context.Background(), v, core.DefaultOptions(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parts := an.Partition(core.PaperAssignment())
	ss, err := core.SplitStreams(v, parts)
	if err != nil {
		t.Fatal(err)
	}
	return v, ss, parts
}

func TestEncryptStreamsRoundTrip(t *testing.T) {
	v, ss, parts := buildStreams(t)
	key, _, _ := testKeyIV(9)
	master := []byte("per-video-master")
	es, err := EncryptStreams(ss, CTR, key, master)
	if err != nil {
		t.Fatal(err)
	}
	back, err := es.Decrypt(key, master, parts)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := back.Merge(v)
	if err != nil {
		t.Fatal(err)
	}
	for f := range v.Frames {
		if !bytes.Equal(v.Frames[f].Payload, merged.Frames[f].Payload) {
			t.Fatalf("frame %d payload differs after encrypt/decrypt/merge", f)
		}
	}
}

func TestEncryptStreamsRejectsBlockModes(t *testing.T) {
	_, ss, _ := buildStreams(t)
	key, _, _ := testKeyIV(10)
	for _, m := range []Mode{ECB, CBC} {
		if _, err := EncryptStreams(ss, m, key, []byte("m")); err == nil {
			t.Fatalf("%v must be rejected for stream encryption", m)
		}
	}
}

func TestApproximateThenDecryptEqualsDecryptThenApproximate(t *testing.T) {
	// Requirement 3 end-to-end: flipping ciphertext bit i and decrypting
	// equals decrypting and flipping plaintext bit i (CTR/OFB).
	_, ss, parts := buildStreams(t)
	key, _, _ := testKeyIV(11)
	master := []byte("m2")
	es, err := EncryptStreams(ss, OFB, key, master)
	if err != nil {
		t.Fatal(err)
	}
	name := ss.SchemeNames()[0]
	// Path A: flip in ciphertext, then decrypt.
	esFlipped := &EncryptedStreams{Mode: es.Mode, Streams: map[string][]byte{}, Bits: es.Bits}
	for n, ct := range es.Streams {
		esFlipped.Streams[n] = append([]byte(nil), ct...)
	}
	bitio.FlipBit(esFlipped.Streams[name], 13)
	a, err := esFlipped.Decrypt(key, master, parts)
	if err != nil {
		t.Fatal(err)
	}
	// Path B: decrypt, then flip the same plaintext bit.
	b, err := es.Decrypt(key, master, parts)
	if err != nil {
		t.Fatal(err)
	}
	bFlipped := append([]byte(nil), b.Streams[name]...)
	bitio.FlipBit(bFlipped, 13)
	if !bytes.Equal(a.Streams[name], bFlipped) {
		t.Fatal("approximation and decryption do not commute")
	}
	for _, n := range ss.SchemeNames() {
		if n != name && !bytes.Equal(a.Streams[n], b.Streams[n]) {
			t.Fatalf("stream %s affected by a flip in %s", n, name)
		}
	}
}

func BenchmarkCTREncryptMB(b *testing.B) {
	b.ReportAllocs()
	key, iv, rng := testKeyIV(12)
	plain := make([]byte, 1<<20)
	rng.Read(plain)
	b.ResetTimer()
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		Encrypt(CTR, key, iv, plain)
	}
}
