type t = Wcoj.plan

let compile q = Wcoj.compile q
