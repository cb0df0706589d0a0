package deploy

import "repro/internal/build"

// Method names an air-index scheme; Params tunes its server. Both live with
// the one build path (internal/build) and are re-exported for the facade.
type (
	Method = build.Method
	Params = build.Params
)

// The seven methods of the paper's evaluation.
const (
	EB   = build.EB
	NR   = build.NR
	DJ   = build.DJ
	AF   = build.AF
	LD   = build.LD
	SPQ  = build.SPQ
	HiTi = build.HiTi
)

// Methods lists all implemented methods in the paper's presentation order.
var Methods = build.Methods
