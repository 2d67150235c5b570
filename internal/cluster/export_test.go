package cluster

// OwnerOf returns the node the ring assigns key to among live peers, as the
// router and the peer tier compute it.
func (n *Node) OwnerOf(key string) string { return n.ring.owner(key, n.peerAlive) }
