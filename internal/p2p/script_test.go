package p2p

import "dpr/internal/rng"

// The model tests run a script of operations whose every choice, a
// value in [0, n) with n at most 256, comes from intn, for as long as
// more reports. A seed draws a script; a fuzz input is one, a byte a
// choice.

// seededScript draws the choices of a steps-long script from seed.
func seededScript(seed uint64, steps int) (intn func(n int) int, more func() bool) {
	r := rng.New(seed)
	return r.Intn, func() bool { steps--; return steps >= 0 }
}

// recordScript runs script on the choices seed draws, for steps steps,
// and returns them as bytes: the fuzz input that replays it.
func recordScript(seed uint64, steps int, script func(intn func(n int) int, more func() bool) string) []byte {
	intn, more := seededScript(seed, steps)
	var b []byte
	script(func(n int) int {
		v := intn(n)
		b = append(b, byte(v))
		return v
	}, more)
	return b
}

// byteScript reads each choice from b, one byte taken mod n, until b
// is spent; a choice past the end is 0.
func byteScript(b []byte) (intn func(n int) int, more func() bool) {
	intn = func(n int) int {
		if len(b) == 0 {
			return 0
		}
		v := int(b[0]) % n
		b = b[1:]
		return v
	}
	more = func() bool { return len(b) > 0 }
	return intn, more
}
