package codecsym

// EncodeGood shares encodeGood's suffix. Codecs pair by suffix, so the
// rule would check only one of the two.
func EncodeGood(v uint32) []byte { // want `repeats the codec suffix "Good" of encodeGood`
	return encodeGood(v)
}
