package coord

// CorruptKeptPart flips the checksum byte of the installed version's kept
// encoding of shard s, as storage damage would, so that building the
// pruned-mode summaries from it fails. The shards already hold good copies.
func CorruptKeptPart(c *Coordinator, s int) {
	b := c.state.Load().encoded[s]
	b[len(b)-1] ^= 0xff
}
