module gxplug/benchmark

go 1.24

require gxplug v0.0.0

replace gxplug => ../
