package graph

// CheckCSR exposes checkCSR to the external fuzz test, which seeds itself
// from a netgen preset (netgen imports graph).
var CheckCSR = checkCSR
