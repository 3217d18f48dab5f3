package satin

// SharedObject is Satin's replicated shared object: every node holds a
// replica, reads are local, and updates are write-methods broadcast to all
// replicas (a user-controlled consistency model, Sec. II-A). K-means uses
// one to distribute the new centroids after each iteration; n-body uses one
// for the updated body positions.
type SharedObject struct {
	rt    *Runtime
	index int
	name  string

	replicas []any
	apply    func(nodeID int, replica any, args any)
}

type sharedUpdate struct {
	Index int
	Args  any
}

// NewShared creates a shared object. init builds each node's replica; apply
// executes a broadcast update against one replica.
func (rt *Runtime) NewShared(name string, init func(nodeID int) any, apply func(nodeID int, replica any, args any)) *SharedObject {
	s := &SharedObject{
		rt:    rt,
		index: len(rt.shared),
		name:  name,
		apply: apply,
	}
	for i := range rt.nodes {
		s.replicas = append(s.replicas, init(i))
	}
	rt.shared = append(rt.shared, s)
	return s
}

// Invoke applies an update to the local replica and broadcasts it to every
// other node (binomial tree, charged to the network model). argBytes is the
// modeled wire size of the update arguments.
func (s *SharedObject) Invoke(c *Context, argBytes int64, args any) {
	s.applyLocal(c.node.ID, args)
	c.node.ep.Broadcast(c.p, "shared_update", argBytes, sharedUpdate{Index: s.index, Args: args})
}

func (s *SharedObject) applyLocal(nodeID int, args any) {
	s.apply(nodeID, s.replicas[nodeID], args)
}
