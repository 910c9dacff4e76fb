# A malformed numeric flag value, or a flag given last with no value,
# must be a usage error: exit code 2 and a message naming the flag,
# never an abort or a wrapped-around count (driven by ctest; see
# tools/CMakeLists.txt). CLI is the binary, ARGS its space-separated
# arguments, FLAG the flag the message must name and EXPECT (optional)
# the text that must follow the name.

separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${CLI} ${args}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${ARGS}' exited with ${rc}, not 2: ${out}${err}")
endif()
string(FIND "${err}" "${FLAG}: ${EXPECT}" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR
            "'${ARGS}' does not say '${FLAG}: ${EXPECT}': ${err}")
endif()
