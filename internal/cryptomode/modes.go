// Package cryptomode implements the four AES block-cipher modes of operation
// analysed in §5 of the paper (ECB, CBC, OFB, CTR) over the standard AES
// substitution-permutation network, together with the machinery to assess
// each mode against the paper's three requirements for encryption on top of
// approximate storage:
//
//  1. the content is unreadable to non-authorized parties,
//  2. individual bit flips do not propagate through the rest of the video,
//  3. encrypting does not interfere with approximation — a flip in
//     ciphertext damages exactly the corresponding plaintext bit.
//
// ECB fails (1); CBC fails (2) and (3); OFB and CTR meet all three.
package cryptomode

import (
	"crypto/aes"
	"crypto/cipher"
	"fmt"
)

// BlockSize is the AES block size in bytes.
const BlockSize = aes.BlockSize

// Mode identifies a block cipher mode of operation.
type Mode int

// The four modes of Figure 7.
const (
	ECB Mode = iota
	CBC
	OFB
	CTR
)

func (m Mode) String() string {
	switch m {
	case ECB:
		return "ECB"
	case CBC:
		return "CBC"
	case OFB:
		return "OFB"
	case CTR:
		return "CTR"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Modes lists all implemented modes.
var Modes = []Mode{ECB, CBC, OFB, CTR}

// IsStream reports whether the mode operates as a stream cipher (arbitrary
// lengths, bitwise error locality).
func (m Mode) IsStream() bool { return m == OFB || m == CTR }

// Encrypt encrypts plaintext with the given 16/24/32-byte key. ECB and CBC
// require the input to be a multiple of BlockSize; OFB and CTR accept any
// length. iv must be BlockSize bytes for all modes except ECB (ignored).
func Encrypt(m Mode, key, iv, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	switch m {
	case ECB:
		if len(plaintext)%BlockSize != 0 {
			return nil, fmt.Errorf("cryptomode: ECB needs whole blocks, got %d bytes", len(plaintext))
		}
		out := make([]byte, len(plaintext))
		for i := 0; i < len(plaintext); i += BlockSize {
			block.Encrypt(out[i:i+BlockSize], plaintext[i:i+BlockSize])
		}
		return out, nil
	case CBC:
		if len(plaintext)%BlockSize != 0 {
			return nil, fmt.Errorf("cryptomode: CBC needs whole blocks, got %d bytes", len(plaintext))
		}
		if err := checkIV(iv); err != nil {
			return nil, err
		}
		out := make([]byte, len(plaintext))
		prev := append([]byte(nil), iv...)
		for i := 0; i < len(plaintext); i += BlockSize {
			var x [BlockSize]byte
			for j := 0; j < BlockSize; j++ {
				x[j] = plaintext[i+j] ^ prev[j]
			}
			block.Encrypt(out[i:i+BlockSize], x[:])
			copy(prev, out[i:i+BlockSize])
		}
		return out, nil
	case OFB:
		if err := checkIV(iv); err != nil {
			return nil, err
		}
		out := make([]byte, len(plaintext))
		feedback := append([]byte(nil), iv...)
		for i := 0; i < len(plaintext); i += BlockSize {
			block.Encrypt(feedback, feedback)
			n := min(BlockSize, len(plaintext)-i)
			for j := 0; j < n; j++ {
				out[i+j] = plaintext[i+j] ^ feedback[j]
			}
		}
		return out, nil
	case CTR:
		if err := checkIV(iv); err != nil {
			return nil, err
		}
		out := make([]byte, len(plaintext))
		cipher.NewCTR(block, iv).XORKeyStream(out, plaintext)
		return out, nil
	default:
		return nil, fmt.Errorf("cryptomode: unknown mode %v", m)
	}
}

// Decrypt inverts Encrypt.
func Decrypt(m Mode, key, iv, ciphertext []byte) ([]byte, error) {
	switch m {
	case OFB, CTR:
		// Stream modes are symmetric.
		return Encrypt(m, key, iv, ciphertext)
	case ECB:
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		if len(ciphertext)%BlockSize != 0 {
			return nil, fmt.Errorf("cryptomode: ECB needs whole blocks")
		}
		out := make([]byte, len(ciphertext))
		for i := 0; i < len(ciphertext); i += BlockSize {
			block.Decrypt(out[i:i+BlockSize], ciphertext[i:i+BlockSize])
		}
		return out, nil
	case CBC:
		block, err := aes.NewCipher(key)
		if err != nil {
			return nil, err
		}
		if len(ciphertext)%BlockSize != 0 {
			return nil, fmt.Errorf("cryptomode: CBC needs whole blocks")
		}
		if err := checkIV(iv); err != nil {
			return nil, err
		}
		out := make([]byte, len(ciphertext))
		prev := append([]byte(nil), iv...)
		var tmp [BlockSize]byte
		for i := 0; i < len(ciphertext); i += BlockSize {
			block.Decrypt(tmp[:], ciphertext[i:i+BlockSize])
			for j := 0; j < BlockSize; j++ {
				out[i+j] = tmp[j] ^ prev[j]
			}
			copy(prev, ciphertext[i:i+BlockSize])
		}
		return out, nil
	default:
		return nil, fmt.Errorf("cryptomode: unknown mode %v", m)
	}
}

func checkIV(iv []byte) error {
	if len(iv) != BlockSize {
		return fmt.Errorf("cryptomode: IV must be %d bytes, got %d", BlockSize, len(iv))
	}
	return nil
}
