module mmdb/bench

go 1.22

require mmdb v0.0.0

replace mmdb => ../
