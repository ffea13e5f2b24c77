package graph

import (
	"fmt"
	"math"
)

// Stats summarizes a graph's degree structure.
type Stats struct {
	Nodes         int
	Edges         int64
	AvgOutDegree  float64
	MaxOutDegree  int
	MaxInDegree   int
	Dangling      int     // nodes with no out-links
	Sources       int     // nodes with no in-links
	OutExponent   float64 // fitted power-law exponent of the out-degree tail
	InExponent    float64 // fitted power-law exponent of the in-degree tail
	LargestInHub  NodeID  // node with the most in-links
	LargestOutHub NodeID  // node with the most out-links
}

// ComputeStats scans the graph (building the transpose) and returns its
// degree summary.
func ComputeStats(g *Graph) Stats {
	g.Transpose()
	s := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges()}
	if s.Nodes == 0 {
		return s
	}
	s.AvgOutDegree = float64(s.Edges) / float64(s.Nodes)
	outDegs := make([]int, s.Nodes)
	inDegs := make([]int, s.Nodes)
	for v := 0; v < s.Nodes; v++ {
		od := g.OutDegree(NodeID(v))
		id := g.InDegree(NodeID(v))
		outDegs[v], inDegs[v] = od, id
		if od == 0 {
			s.Dangling++
		}
		if id == 0 {
			s.Sources++
		}
		if od > s.MaxOutDegree {
			s.MaxOutDegree, s.LargestOutHub = od, NodeID(v)
		}
		if id > s.MaxInDegree {
			s.MaxInDegree, s.LargestInHub = id, NodeID(v)
		}
	}
	s.OutExponent = fitExponent(outDegs)
	s.InExponent = fitExponent(inDegs)
	return s
}

// fitExponent estimates the power-law exponent alpha of a degree
// sample using the discrete Hill / maximum-likelihood estimator
// alpha = 1 + n / sum(ln(x_i / (xmin - 0.5))) with xmin = 1.
// Zero degrees are excluded. Returns NaN when fewer than two positive
// degrees exist.
func fitExponent(degs []int) float64 {
	sum := 0.0
	n := 0
	for _, d := range degs {
		if d >= 1 {
			sum += math.Log(float64(d) / 0.5)
			n++
		}
	}
	if n < 2 || sum == 0 {
		return math.NaN()
	}
	return 1 + float64(n)/sum
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d edges=%d avg_out=%.2f max_out=%d max_in=%d dangling=%d fitted(out=%.2f in=%.2f)",
		s.Nodes, s.Edges, s.AvgOutDegree, s.MaxOutDegree, s.MaxInDegree, s.Dangling,
		s.OutExponent, s.InExponent)
}
