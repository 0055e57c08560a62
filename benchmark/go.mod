module graphsql/benchmark

go 1.24

require graphsql v0.0.0

replace graphsql => ../
