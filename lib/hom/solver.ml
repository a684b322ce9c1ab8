let count_plan ?budget p d = Bagcq_bignum.Nat.to_int (Wcoj.count ?budget p d)
