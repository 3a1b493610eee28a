// The benchmark is a module of its own so that it builds with its own
// build file; the videoapp/ path prefix is what lets it import the
// program's internal packages, and the replace points at the checkout.
module videoapp/bench

go 1.24

require videoapp v0.0.0

replace videoapp => ../
