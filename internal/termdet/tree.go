package termdet

// Control frames route over two fixed shapes of the complete graph. DS
// engages every rank under rank 0, and both protocols send the
// termination announcement from rank 0 to every other rank: the star
// under rank 0. Safra's probe travels the ring 0 → 1 → … → n-1 → 0.

// starKids returns rank's children in the star under rank 0: every
// other rank for rank 0, none for the rest.
func starKids(n, rank int) []int {
	if rank != 0 {
		return nil
	}
	kids := make([]int, 0, n-1)
	for r := 1; r < n; r++ {
		kids = append(kids, r)
	}
	return kids
}

// announce sends the termination announcement to the rank's children
// in the star: rank 0 sends it at detection, every other rank has none
// to forward it to.
func announce(ctx Context, kids []int) {
	for _, k := range kids {
		ctx.SendCtrl(k, Ctrl{Kind: CtrlTerm})
	}
}
