// Encrypted demonstrates §5 of the paper: approximate storage of encrypted
// videos. The partitioned video is split into per-reliability streams, each
// encrypted with AES-CTR under an IV derived from one master value and the
// stream identifier. Bit errors injected into the ciphertext (as approximate
// storage would) stay local — decrypting and merging yields exactly the
// damage the unencrypted approximate store would have produced.
package main

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"log"
	mrand "math/rand"

	"videoapp"
	"videoapp/internal/bitio"
)

func main() {
	seq, err := videoapp.GenerateTestVideo("surveillance_like", 320, 176, 48)
	if err != nil {
		log.Fatal(err)
	}
	p := videoapp.DefaultParams()
	video, err := videoapp.EncodeContext(context.Background(), seq, p, 0)
	if err != nil {
		log.Fatal(err)
	}
	analysis, err := videoapp.AnalyzeContext(context.Background(), video, 0)
	if err != nil {
		log.Fatal(err)
	}
	parts := analysis.Partition(videoapp.PaperAssignment())

	// Split into per-reliability streams and encrypt each one (§5.3).
	streams, err := videoapp.SplitStreams(video, parts)
	if err != nil {
		log.Fatal(err)
	}
	key := make([]byte, 16)
	master := make([]byte, 16)
	rand.Read(key)
	rand.Read(master)
	encrypted, err := videoapp.EncryptStreams(streams, videoapp.ModeCTR, key, master)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("encrypted streams:")
	for name, ct := range encrypted.Streams {
		fmt.Printf("  %-7s %8d bytes\n", name, len(ct))
	}

	// Simulate approximate storage ON THE CIPHERTEXT: flip bits in the two
	// weakest streams, as the unprotected/lightly-protected MLC cells would.
	rng := mrand.New(mrand.NewSource(42))
	flips := 0
	for _, name := range []string{"None", "BCH-6"} {
		ct, ok := encrypted.Streams[name]
		if !ok {
			continue
		}
		for k := 0; k < 8; k++ {
			bitio.FlipBit(ct, rng.Int63n(int64(len(ct))*8))
			flips++
		}
	}
	fmt.Printf("injected %d bit errors into the encrypted low-importance streams\n", flips)

	// Decrypt, merge, decode: privacy preserved AND approximation preserved.
	decrypted, err := encrypted.Decrypt(key, master, parts)
	if err != nil {
		log.Fatal(err)
	}
	merged, err := decrypted.Merge(video)
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := videoapp.DecodeContext(context.Background(), merged, 0)
	if err != nil {
		log.Fatal(err)
	}
	psnr, err := videoapp.PSNRContext(context.Background(), seq, decoded, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("decoded after encrypted approximate storage: PSNR %.2f dB\n", psnr)

	// Sanity: an eavesdropper sees only noise — the ciphertext shares no
	// long runs with the plaintext stream.
	for name := range streams.Streams {
		if bytes.Equal(streams.Streams[name], encrypted.Streams[name]) {
			log.Fatalf("stream %s leaked as plaintext", name)
		}
	}
	fmt.Println("ciphertext differs from plaintext in every stream: privacy preserved")
}
