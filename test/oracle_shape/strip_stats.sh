#!/bin/sh
# Drop the fields a faster build may change (wall_ms, sat_propagations)
# from `ddbtool stats` JSON on stdin, and print one field per line.
sed -E -e 's/,"wall_ms":[0-9.]+//g' -e 's/"sat_propagations":[0-9]+,//g' | tr ',' '\n'
