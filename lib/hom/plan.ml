type t = Wcoj.plan

let compile = Wcoj.compile
